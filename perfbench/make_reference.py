"""Write reference.json: every case's checked values at the reference seed.

Run from the root of a checkout, on a commit whose outputs are trusted:

    python3 perfbench/make_reference.py
"""

from __future__ import annotations

import bootstrap  # noqa: F401  first: pins BLAS threads before numpy loads

import json


def main() -> None:
    bootstrap.use_checkout_sources()
    import checks
    import workloads
    seed = checks.REFERENCE_SEED
    out = {"seed": seed, "workloads": {}}
    for name, cls in workloads.WORKLOADS.items():
        workload = cls(bootstrap.work_dir(name, seed), seed)
        workload.write_inputs()
        tables = {}
        for case in workload.cases:
            result = case.run()
            if result.exit_code != 0 or any(s != "converged" for s in result.statuses):
                raise SystemExit(f"{name} {case.name}: exit {result.exit_code}, "
                                 f"statuses {result.statuses}")
            tables[case.name] = result.table
        out["workloads"][name] = tables
    # one line per case keeps the file short and its diffs readable
    lines = [f'{{"seed": {seed}, "workloads": {{']
    for w, (name, tables) in enumerate(out["workloads"].items()):
        lines.append(f" {json.dumps(name)}: {{")
        for c, (case, table) in enumerate(tables.items()):
            comma = "," if c < len(tables) - 1 else ""
            lines.append(f"  {json.dumps(case)}: {json.dumps(table)}{comma}")
        lines.append(" }" + ("," if w < len(out["workloads"]) - 1 else ""))
    lines.append("}}")
    checks.REFERENCE_FILE.write_text("\n".join(lines) + "\n", encoding="utf-8")
    print(f"wrote {checks.REFERENCE_FILE}")


if __name__ == "__main__":
    main()
