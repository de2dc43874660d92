"""Plan-time half of the SQL engine: parsed statement → :class:`Plan`.

Everything that depends only on the statement text and the schema happens
here, once per prepared statement: table and column resolution, access
path and index selection for the driving table and each join, the split
of WHERE/ON into the conjunct an index answers and the residual, and the
compilation of predicates, projections and VALUES/SET lists to closures.
:meth:`Database.execute` caches the result by SQL text and re-plans when
the schema epoch moves (any DDL), so none of it runs per execution.
"""

from __future__ import annotations

import operator
from functools import partial
from typing import Any, Callable, Sequence

from repro.db.errors import DBError, NoSuchColumnError, SQLSyntaxError
from repro.db.schema import Column, TableSchema
from repro.db.sql import ast
from repro.db.sql.executor import (
    CommandPlan,
    ConstFn,
    ExplainPlan,
    FullScan,
    HashLookup,
    InProbe,
    InsertPlan,
    JoinStep,
    MutatePlan,
    Plan,
    PrefixScan,
    RowFn,
    SelectPlan,
    like_to_regex,
)
from repro.db.table import Table
from repro.db.types import type_from_sql


def prepare(db: Any, stmt: ast.Statement) -> Plan:
    """Compile one parsed statement against ``db``'s current schema."""
    build = _BUILDERS.get(type(stmt))
    if build is None:
        raise DBError(f"unsupported statement type: {type(stmt).__name__}")
    return build(db, stmt)


# ---------------------------------------------------------------------------
# Expression compilation
# ---------------------------------------------------------------------------

_COMPARE = {
    "=": operator.eq,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}


def _is_const(expr: Any) -> bool:
    return isinstance(expr, (ast.Literal, ast.Param))


def _const(expr: Any) -> ConstFn:
    """Row-free expression (INSERT values, SET, index keys)."""
    if isinstance(expr, ast.Literal):
        value = expr.value
        return lambda params: value
    if isinstance(expr, ast.Param):
        return operator.itemgetter(expr.index)
    raise SQLSyntaxError("expected a literal or parameter")


def _const_tuple(exprs: Sequence[Any]) -> ConstFn:
    """``params -> tuple`` of several row-free expressions."""
    parts = [_const(e) for e in exprs]
    return lambda params: tuple([part(params) for part in parts])


def _const_key(exprs: Sequence[Any]) -> ConstFn:
    """``params -> hash index key`` of row-free expressions, one per
    indexed column: the bare value for one, the tuple for several, and
    ``None`` when any of them is NULL (such a key matches nothing)."""
    if len(exprs) == 1:
        return _const(exprs[0])
    values_of = _const_tuple(exprs)

    def key_of(params: Sequence[Any]) -> Any:
        key = values_of(params)
        return None if None in key else key

    return key_of


def _flatten_and(expr: Any):
    if isinstance(expr, ast.And):
        yield from _flatten_and(expr.left)
        yield from _flatten_and(expr.right)
    else:
        yield expr


class _Compiler:
    """One statement's name scope plus its expression compiler.

    Bindings (table names or aliases) get consecutive *slots*; a compiled
    expression reads ``rows[slot][position]``, both fixed here.
    """

    def __init__(self) -> None:
        self.bindings: dict[str, tuple[int, TableSchema]] = {}
        #: Per-execution values computed from the parameters before the
        #: first row (see :func:`repro.db.sql.executor.bind_derived`).
        self.derived: list[ConstFn] = []

    def bind(self, binding: str, schema: TableSchema) -> int:
        if binding in self.bindings:
            raise SQLSyntaxError(f"duplicate table binding {binding!r}")
        slot = len(self.bindings)
        self.bindings[binding] = (slot, schema)
        return slot

    def resolve(self, ref: ast.ColumnRef, visible: int | None = None) -> tuple[int, int]:
        """``(slot, position)`` of a column; ``visible`` bounds the slots
        already bound at this point of the nested loop."""
        if ref.qualifier is not None:
            entry = self.bindings.get(ref.qualifier.lower())
            if entry is None:
                raise NoSuchColumnError(ref.qualifier, ref.name)
            slot, schema = entry
        else:
            matches = [
                entry for entry in self.bindings.values()
                if entry[1].has_column(ref.name)
            ]
            if not matches:
                raise NoSuchColumnError("<any>", ref.name)
            if len(matches) > 1:
                raise SQLSyntaxError(f"ambiguous column name: {ref.name!r}")
            slot, schema = matches[0]
        if visible is not None and slot >= visible:
            raise NoSuchColumnError(ref.qualifier or "<any>", ref.name)
        return slot, schema.column_index(ref.name)

    def local_column(self, expr: Any, slot: int) -> int | None:
        """Position of ``expr`` if it is a column of the table at ``slot``."""
        if isinstance(expr, ast.ColumnRef):
            found, pos = self.resolve(expr)
            if found == slot:
                return pos
        return None

    # -- expressions ----------------------------------------------------

    def expr(self, node: Any, visible: int | None = None) -> RowFn:
        if isinstance(node, ast.Literal):
            value = node.value
            return lambda rows, params: value
        if isinstance(node, ast.Param):
            index = node.index
            return lambda rows, params: params[index]
        if isinstance(node, ast.ColumnRef):
            slot, pos = self.resolve(node, visible)
            return lambda rows, params: rows[slot][pos]
        if isinstance(node, ast.Comparison):
            return _comparison(
                node.op, self.expr(node.left, visible), self.expr(node.right, visible)
            )
        if isinstance(node, ast.And):
            left, right = self.expr(node.left, visible), self.expr(node.right, visible)
            return lambda rows, params: bool(left(rows, params)) and bool(
                right(rows, params)
            )
        if isinstance(node, ast.Or):
            left, right = self.expr(node.left, visible), self.expr(node.right, visible)
            return lambda rows, params: bool(left(rows, params)) or bool(
                right(rows, params)
            )
        if isinstance(node, ast.Not):
            operand = self.expr(node.operand, visible)
            return lambda rows, params: not operand(rows, params)
        if isinstance(node, ast.IsNull):
            operand, negated = self.expr(node.expr, visible), node.negated
            return lambda rows, params: (operand(rows, params) is None) != negated
        if isinstance(node, ast.InList):
            return self._in_list(node, visible)
        raise DBError(f"cannot evaluate expression: {node!r}")

    def conjunction(self, conjuncts: list[Any], visible: int | None = None) -> RowFn | None:
        """The AND of ``conjuncts`` as one predicate; ``None`` when empty."""
        if not conjuncts:
            return None
        node = conjuncts[0]
        for conj in conjuncts[1:]:
            node = ast.And(node, conj)
        return self.expr(node, visible)

    def _in_list(self, node: ast.InList, visible: int | None) -> RowFn:
        """``x [NOT] IN (...)``.  A NULL ``x`` is in no list.  A constant
        list is tested through one membership set, built once per
        execution as a derived parameter."""
        value_of, negated = self.expr(node.expr, visible), node.negated
        items = [self.expr(item, visible) for item in node.items]

        def scan(rows: Sequence[Any], params: Sequence[Any]) -> bool:
            value = value_of(rows, params)
            found = value is not None and any(
                value == item(rows, params) for item in items
            )
            return found != negated

        if not all(_is_const(item) for item in node.items):
            return scan
        values_of = _const_tuple(node.items)

        def member_set(params: Sequence[Any]) -> frozenset | None:
            try:
                return frozenset(values_of(params))
            except TypeError:  # an unhashable parameter: compare one by one
                return None

        self.derived.append(member_set)
        at = -len(self.derived)

        def probe(rows: Sequence[Any], params: Sequence[Any]) -> bool:
            members = params[at]
            if members is None:
                return scan(rows, params)
            value = value_of(rows, params)
            try:
                found = value is not None and value in members
            except TypeError:  # unhashable column value
                return scan(rows, params)
            return found != negated

        return probe

    # -- access paths ---------------------------------------------------

    def access_path(self, table: Table, slot: int, where: Any) -> tuple[Any, RowFn | None]:
        """``(access path, residual predicate)`` for the driving table.

        A conjunct answered exactly by the chosen index (hash equality or
        IN probe; NULL keys match nothing on either side) leaves the
        residual; a LIKE prefix only narrows, so the LIKE stays.
        """
        if where is None:
            return FullScan(table, filtered=False), None
        conjuncts = list(_flatten_and(where))

        # 1) Equality on an indexed column set, widest index first.
        equalities: dict[int, tuple[Any, Any]] = {}
        for conj in conjuncts:
            if isinstance(conj, ast.Comparison) and conj.op == "=":
                for col, const in ((conj.left, conj.right), (conj.right, conj.left)):
                    if _is_const(const):
                        pos = self.local_column(col, slot)
                        if pos is not None:
                            equalities.setdefault(pos, (conj, const))
                            break
        index = table.covered_hash_index(equalities.keys()) if equalities else None
        if index is not None:
            used = [equalities[p] for p in index.column_positions]
            covered = [conj for conj, _const in used]
            path: Any = HashLookup(
                table, index, _const_key([const for _conj, const in used])
            )
            rest = [c for c in conjuncts if not any(c is d for d in covered)]
            return path, self.conjunction(rest)

        # 2) IN-list over a hash-indexed column: one probe per key.
        for conj in conjuncts:
            if (
                isinstance(conj, ast.InList)
                and not conj.negated
                and conj.items
                and all(_is_const(item) for item in conj.items)
            ):
                pos = self.local_column(conj.expr, slot)
                index = None if pos is None else table.covered_hash_index({pos})
                if index is not None:
                    path = InProbe(table, index, _const_tuple(conj.items))
                    rest = [c for c in conjuncts if c is not conj]
                    return path, self.conjunction(rest)

        # 3) LIKE prefix on an ordered-indexed column.
        for conj in conjuncts:
            if (
                isinstance(conj, ast.Comparison)
                and conj.op == "LIKE"
                and _is_const(conj.right)
            ):
                pos = self.local_column(conj.left, slot)
                ordered = (
                    None if pos is None
                    else table.find_ordered_index(table.schema.columns[pos].name)
                )
                if ordered is not None:
                    path = PrefixScan(table, ordered, _const(conj.right))
                    return path, self.conjunction(conjuncts)

        return FullScan(table, filtered=True), self.conjunction(conjuncts)

    def join_step(self, slot: int, table: Table, on: Any) -> JoinStep:
        """Probe the inner table through a hash index when ON equates one
        of its indexed columns with something the outer rows provide."""
        conjuncts = list(_flatten_and(on))
        for conj in conjuncts:
            if not (isinstance(conj, ast.Comparison) and conj.op == "="):
                continue
            for inner, outer in ((conj.left, conj.right), (conj.right, conj.left)):
                pos = self.local_column(inner, slot)
                index = None if pos is None else table.covered_hash_index({pos})
                if index is None:
                    continue
                try:
                    key_of = self.expr(outer, visible=slot)
                except NoSuchColumnError:
                    continue  # the other side is not bound yet
                rest = [c for c in conjuncts if c is not conj]
                return JoinStep(
                    slot, table, index, key_of, self.conjunction(rest, slot + 1)
                )
        return JoinStep(slot, table, None, None, self.conjunction(conjuncts, slot + 1))


def _comparison(op: str, left: RowFn, right: RowFn) -> RowFn:
    """SQL tri-state logic collapsed: a NULL operand makes every
    comparison false except ``!=`` (true unless both are NULL)."""
    test = _COMPARE.get(op)
    if test is not None:
        def compare(rows: Sequence[Any], params: Sequence[Any]) -> bool:
            a, b = left(rows, params), right(rows, params)
            return a is not None and b is not None and test(a, b)
    elif op == "!=":
        def compare(rows: Sequence[Any], params: Sequence[Any]) -> bool:
            a, b = left(rows, params), right(rows, params)
            if a is None or b is None:
                return not (a is None and b is None)
            return a != b
    elif op in ("LIKE", "NOT LIKE"):
        negated = op == "NOT LIKE"

        def compare(rows: Sequence[Any], params: Sequence[Any]) -> bool:
            a, b = left(rows, params), right(rows, params)
            if a is None or b is None:
                return False
            return (like_to_regex(str(b)).fullmatch(str(a)) is not None) != negated
    else:
        raise DBError(f"unknown comparison operator {op!r}")
    return compare


# ---------------------------------------------------------------------------
# Statements
# ---------------------------------------------------------------------------


def _select(db: Any, stmt: ast.Select) -> SelectPlan:
    compiler = _Compiler()
    base = db.table(stmt.table.name)
    compiler.bind(stmt.table.binding, base.schema)
    joined = []
    for join in stmt.joins:
        table = db.table(join.table.name)
        joined.append((compiler.bind(join.table.binding, table.schema), table, join.on))
    drive, residual = compiler.access_path(base, 0, stmt.where)
    joins = tuple(compiler.join_step(*entry) for entry in joined)

    count_star = len(stmt.items) == 1 and isinstance(stmt.items[0].expr, ast.CountStar)
    if count_star:
        columns = [stmt.items[0].alias or "count"]
        project: RowFn = lambda rows, params: None
    elif stmt.items:
        columns = [
            item.alias
            or (item.expr.name if isinstance(item.expr, ast.ColumnRef) else "expr")
            for item in stmt.items
        ]
        cells = [compiler.expr(item.expr) for item in stmt.items]
        project = lambda rows, params: tuple([cell(rows, params) for cell in cells])
    else:  # SELECT *
        single = len(compiler.bindings) == 1
        columns = [
            c.name if single else f"{binding}.{c.name}"
            for binding, (_slot, schema) in compiler.bindings.items()
            for c in schema.columns
        ]
        project = lambda rows, params: tuple([v for row in rows for v in row])

    sort_keys: tuple[tuple[int, bool], ...] = ()
    sort_on_source = False
    order_by = () if count_star else stmt.order_by
    if order_by:
        if not all(isinstance(item.expr, ast.ColumnRef) for item in order_by):
            raise SQLSyntaxError("ORDER BY supports columns only")
        if all(item.expr.name in columns for item in order_by):
            sort_keys = tuple(
                (columns.index(item.expr.name), item.descending) for item in order_by
            )
        else:
            # Sorting on non-projected source columns needs the row
            # context, which DISTINCT's de-duplication loses.
            if stmt.distinct:
                raise SQLSyntaxError(
                    "ORDER BY on non-projected columns requires them in SELECT "
                    "when DISTINCT is used"
                )
            sort_on_source = True
            sort_keys = tuple((i, item.descending) for i, item in enumerate(order_by))
            output, keys = project, [compiler.expr(item.expr) for item in order_by]
            project = lambda rows, params: (
                output(rows, params), [key(rows, params) for key in keys]
            )
    return SelectPlan(
        drive, joins, residual, project, columns, count_star,
        stmt.distinct, sort_keys, sort_on_source,
        ", ".join(item.expr.name for item in order_by),
        None if count_star else stmt.limit,
        tuple(compiler.derived),
    )


def _values_of(columns: Sequence[str], exprs: Sequence[Any]) -> Callable[[Sequence[Any]], dict[str, Any]]:
    """``params -> {column: value}`` for one VALUES row or a SET list."""
    cells = _const_tuple(exprs)
    return lambda params: dict(zip(columns, cells(params)))


def _mutate(db: Any, stmt: ast.Update | ast.Delete) -> MutatePlan:
    table = db.table(stmt.table)
    compiler = _Compiler()
    compiler.bind(table.schema.name.lower(), table.schema)
    drive, residual = compiler.access_path(table, 0, stmt.where)
    changes_of = None
    if isinstance(stmt, ast.Update):
        columns = [col for col, _expr in stmt.assignments]
        for col in columns:
            table.schema.column_index(col)  # unknown column fails the plan
        changes_of = _values_of(columns, [expr for _col, expr in stmt.assignments])
    return MutatePlan(
        db, table.schema.name, drive, residual, changes_of, tuple(compiler.derived)
    )


def _insert(db: Any, stmt: ast.Insert) -> InsertPlan:
    table = db.table(stmt.table)
    autoinc_pos = next(
        (i for i, c in enumerate(table.schema.columns) if c.autoincrement), None
    )
    rows_of = tuple(_values_of(stmt.columns, row) for row in stmt.rows)
    return InsertPlan(db, table.schema.name, rows_of, autoinc_pos)


def _explain(db: Any, stmt: ast.Explain) -> ExplainPlan:
    return ExplainPlan(db, prepare(db, stmt.statement), stmt.analyze)


def _create_table(db: Any, stmt: ast.CreateTable) -> int:
    columns = [
        Column(
            name=c.name,
            ctype=type_from_sql(c.type_name, c.type_arg),
            nullable=not c.not_null,
            autoincrement=c.autoincrement,
        )
        for c in stmt.columns
    ]
    db.create_table(
        TableSchema(
            name=stmt.name,
            columns=columns,
            primary_key=stmt.primary_key,
            unique=list(stmt.unique),
        )
    )
    return 0


def _create_index(db: Any, stmt: ast.CreateIndex) -> int:
    table = db.table(stmt.table)
    if stmt.using == "BTREE":
        if len(stmt.columns) != 1:
            raise SQLSyntaxError("BTREE indexes cover exactly one column")
        table.create_ordered_index(stmt.name, stmt.columns[0])
    else:
        table.create_hash_index(stmt.name, list(stmt.columns))
    return 0


def _drop_table(db: Any, stmt: ast.DropTable) -> int:
    db.drop_table(stmt.name)
    return 0


def _vacuum(db: Any, stmt: ast.Vacuum) -> int:
    names = [stmt.table] if stmt.table is not None else db.table_names()
    return sum(db.table(name).vacuum() for name in names)


def _command(action: Callable[[Any, Any], int]) -> Callable[[Any, Any], CommandPlan]:
    return lambda db, stmt: CommandPlan(partial(action, db, stmt))


_BUILDERS: dict[type, Callable[[Any, Any], Plan]] = {
    ast.Select: _select,
    ast.Insert: _insert,
    ast.Update: _mutate,
    ast.Delete: _mutate,
    ast.Explain: _explain,
    ast.CreateTable: _command(_create_table),
    ast.CreateIndex: _command(_create_index),
    ast.DropTable: _command(_drop_table),
    ast.Vacuum: _command(_vacuum),
}
