"""Mini-SQL dialect: lexer, parser, planner, and executor.

The dialect covers exactly what the RLS server and the paper's "native
MySQL" baseline need: CREATE TABLE / CREATE INDEX, INSERT (multi-row),
SELECT with inner joins / WHERE / LIKE / IN / ORDER BY / LIMIT / COUNT(*),
UPDATE, DELETE, and VACUUM.  ``?`` placeholders bind positional parameters,
and the engine caches each statement's compiled plan by SQL text, so
repeated execution skips the parser and the planner (the RLS issues a
small fixed statement set at very high rates).
"""

from repro.db.sql.parser import parse

__all__ = ["parse"]
