"""Time-hygiene pass: simulation time stays integer picoseconds.

Every backend agrees on event order because ``(time, seq)`` keys are
exact integers; one float leaking into a ``*_ps`` quantity introduces
rounding that differs across code paths, breaking byte-identity
between edge/fast/batch.
The sanctioned float->ps quantization point is an explicit ``int(...)``
(idiomatically ``int(round(x * 1e12))``): this pass flags any value
bound to a ``*_ps`` name whose expression contains a float literal or
a true division *outside* an ``int(...)`` wrapper, plus ``float``
annotations on ``*_ps`` parameters and ``/=`` on ``*_ps`` targets.
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional

from repro.lint.astutil import terminal_name
from repro.lint.framework import FileContext, Finding, lint_pass


def _is_ps_name(name: Optional[str]) -> bool:
    return name is not None and (name == "ps" or name.endswith("_ps"))


def _float_taint(node: ast.AST) -> Optional[ast.AST]:
    """The first float literal or true division in ``node``'s tree
    that is not enclosed in an ``int(...)`` call, else ``None``."""
    if isinstance(node, ast.Call):
        func = node.func
        if isinstance(func, ast.Name) and func.id == "int":
            return None          # explicit quantization point
    if isinstance(node, ast.Constant) and isinstance(node.value, float):
        return node
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Div):
        return node
    for child in ast.iter_child_nodes(node):
        taint = _float_taint(child)
        if taint is not None:
            return taint
    return None


def _describe(taint: ast.AST) -> str:
    if isinstance(taint, ast.BinOp):
        return "a true division (`/`)"
    return f"float literal {taint.value!r}"


@lint_pass(
    "time-hygiene",
    "*_ps quantities must stay integer picoseconds (floats only "
    "under an explicit int(...) quantization)",
)
def time_hygiene(ctx: FileContext) -> Iterator[Finding]:
    for node in ast.walk(ctx.tree):
        if isinstance(node, ast.Assign):
            for target in node.targets:
                if _is_ps_name(terminal_name(target)):
                    taint = _float_taint(node.value)
                    if taint is not None:
                        yield ctx.finding(
                            "time-hygiene",
                            node,
                            f"{terminal_name(target)} is assigned "
                            f"{_describe(taint)}; sim time must stay "
                            "integer picoseconds",
                            hint="quantize with int(round(...)) at the "
                                 "seconds->ps boundary",
                        )
                        break
        elif isinstance(node, ast.AnnAssign):
            name = terminal_name(node.target)
            if _is_ps_name(name):
                if (
                    isinstance(node.annotation, ast.Name)
                    and node.annotation.id == "float"
                ):
                    yield ctx.finding(
                        "time-hygiene",
                        node,
                        f"{name} is annotated float; picosecond "
                        "quantities are integers",
                        hint="annotate as int (seconds live in *_s "
                             "names)",
                    )
                elif node.value is not None:
                    taint = _float_taint(node.value)
                    if taint is not None:
                        yield ctx.finding(
                            "time-hygiene",
                            node,
                            f"{name} is assigned {_describe(taint)}; "
                            "sim time must stay integer picoseconds",
                            hint="quantize with int(round(...)) at the "
                                 "seconds->ps boundary",
                        )
        elif isinstance(node, ast.AugAssign):
            name = terminal_name(node.target)
            if _is_ps_name(name):
                if isinstance(node.op, ast.Div):
                    yield ctx.finding(
                        "time-hygiene",
                        node,
                        f"{name} /= ... turns an integer picosecond "
                        "counter into a float",
                        hint="use //= or restructure the computation",
                    )
                else:
                    taint = _float_taint(node.value)
                    if taint is not None:
                        yield ctx.finding(
                            "time-hygiene",
                            node,
                            f"{name} augmented with {_describe(taint)}",
                            hint="keep ps arithmetic integer",
                        )
        elif isinstance(node, ast.Call):
            for keyword in node.keywords:
                if _is_ps_name(keyword.arg):
                    taint = _float_taint(keyword.value)
                    if taint is not None:
                        yield ctx.finding(
                            "time-hygiene",
                            keyword.value,
                            f"argument {keyword.arg}= receives "
                            f"{_describe(taint)}; ps arguments are "
                            "integers",
                            hint="quantize with int(round(...)) before "
                                 "the call",
                        )
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for arg in (
                list(node.args.posonlyargs)
                + list(node.args.args)
                + list(node.args.kwonlyargs)
            ):
                if _is_ps_name(arg.arg) and (
                    isinstance(arg.annotation, ast.Name)
                    and arg.annotation.id == "float"
                ):
                    yield ctx.finding(
                        "time-hygiene",
                        arg,
                        f"parameter {arg.arg} is annotated float; "
                        "picosecond quantities are integers",
                        hint="annotate as int",
                    )
            if _is_ps_name(node.name) or node.name.endswith("_ps"):
                for child in ast.walk(node):
                    if isinstance(child, ast.Return) and \
                            child.value is not None:
                        fn = ctx.enclosing_function(child)
                        if fn is not node:
                            continue
                        taint = _float_taint(child.value)
                        if taint is not None:
                            yield ctx.finding(
                                "time-hygiene",
                                child,
                                f"{node.name}() returns "
                                f"{_describe(taint)}; *_ps functions "
                                "return integer picoseconds",
                                hint="quantize with int(round(...)) "
                                     "before returning",
                            )
