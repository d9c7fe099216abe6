"""Correctness checks on what a workload produced.

Each check returns a list of problems; an empty list means the output is
correct.  The checks read only the outputs (report text, CLI JSON) and the
inputs that produced them, so the self-test can hand them doctored outputs.
"""

from __future__ import annotations

import math


def expected_row_labels(config) -> list[str]:
    """Row labels of a relative-error table, one per (size, lambda) pair."""
    labels = []
    for size in config.sample_sizes:
        for lam in config.lambda_grid:
            if len(config.lambda_grid) == 1:
                labels.append(str(size))
            elif len(config.sample_sizes) == 1:
                labels.append(format(lam, "g"))
            else:
                labels.append(f"{size}|{format(lam, 'g')}")
    return labels


def _finite_nonnegative(values) -> bool:
    return all(isinstance(v, (int, float)) and math.isfinite(v) and v >= 0 for v in values)


def check_report(kind: str, config, text: str, api) -> list[str]:
    """A report must round-trip through parse_report and match its config.

    kind is 'relative' (rows: sizes x lambdas, cols: schemes) or 'sparsity'
    (rows: the three solvers, cols: lambdas).  api is the regcoreset package.
    """
    try:
        table = api.parse_report(text)
    except (ValueError, TypeError) as exc:
        return [f"{kind}: report does not parse: {exc}"]
    problems = []
    if api.emit_report(table, "json") != text:
        problems.append(f"{kind}: report does not round-trip byte for byte")
    if table.config_digest != config.digest():
        problems.append(f"{kind}: config_digest does not match ExperimentConfig.digest()")
    if kind == "relative":
        rows, cols = expected_row_labels(config), list(config.schemes)
        trials = config.trials_per_cell
    else:
        rows = ["lasso", "modified_lasso", "ridge"]
        cols = [format(lam, "g") for lam in config.lambda_grid]
        trials = 1
    if table.row_labels != rows or table.col_labels != cols:
        problems.append(f"{kind}: rows/cols {table.row_labels}/{table.col_labels} "
                        f"differ from the config's {rows}/{cols}")
        return problems
    if len(table.cells) != len(rows) or any(len(r) != len(cols) for r in table.cells):
        problems.append(f"{kind}: cell grid is not {len(rows)}x{len(cols)}")
        return problems
    if not all(_finite_nonnegative(row) for row in table.cells):
        problems.append(f"{kind}: a cell is negative, NaN or infinite")
    if any(len(cell) != trials or not _finite_nonnegative(cell)
           for row in table.trials for cell in row) or len(table.trials) != len(rows):
        problems.append(f"{kind}: trial lists are malformed or hold a bad value")
    if kind == "sparsity" and not problems:
        by_name = dict(zip(table.row_labels, table.cells))
        for name in ("lasso", "modified_lasso"):
            row = by_name[name]
            if any(a > b for a, b in zip(row, row[1:])):
                problems.append(f"sparsity: the {name} row decreases in lambda")
            # Ridge shrinks without selecting.  Its row is all zeros at seed 2,
            # but at some seeds one heavily shrunk coefficient dips under the
            # 1e-6 count threshold at lambda=20, so the check is that ridge is
            # never sparser than an l1 penalty at the same lambda.
            if any(r > v for r, v in zip(by_name["ridge"], row)):
                problems.append(f"sparsity: ridge is sparser than {name} at some lambda")
    return problems


def check_chain(steps: dict, full_obj_at_core: float | None) -> list[str]:
    """The README chain: every step exits 0, solves converge, verify passes.

    steps maps step name to {"code": exit code, "doc": parsed JSON output or
    None}.  full_obj_at_core is the full-data objective at the coreset
    solution, which may not beat the full-data optimum.
    """
    problems = [f"{name}: exit code {s['code']}" for name, s in steps.items() if s["code"] != 0]
    if problems:
        return problems
    for name in ("solve-instance", "solve-coreset"):
        doc = steps[name]["doc"]
        if doc.get("converged") is not True:
            problems.append(f"{name}: converged is {doc.get('converged')!r}")
        if not (isinstance(doc.get("objective_value"), float)
                and math.isfinite(doc["objective_value"])):
            problems.append(f"{name}: objective_value is not a finite number")
    if steps["verify"]["doc"].get("passed") is not True:
        problems.append(f"verify: passed is {steps['verify']['doc'].get('passed')!r}")
    if not problems:
        full = steps["solve-instance"]["doc"]["objective_value"]
        if full_obj_at_core is None or not math.isfinite(full_obj_at_core):
            problems.append("chain: the coreset solution has no full-data objective")
        elif full > full_obj_at_core:
            problems.append(f"chain: full-data optimum {full} exceeds the objective "
                            f"{full_obj_at_core} of the coreset solution")
    return problems
