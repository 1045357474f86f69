"""Regenerate ``goldens.json``: the digest of every op any seed can draw.

    python3 bench/make_goldens.py

Before writing, the two routes are cross-checked where they overlap:
``expand_affine_schur`` against ``oracle_expand`` on every oracle element,
and every degree-0 slice of the gw-table workload against ``lr_coeff``.
Run it only on a commit whose outputs are trusted; the benchmark then
counts any later change of an output as a failed op.
"""

from __future__ import annotations

import json
import platform
import subprocess
import sys

import run
import workloads


def cross_check() -> int:
    from cylkit import partitions, stanley, symfunc

    checks = 0
    for _, kind, w in workloads.all_ops("oracle"):
        if kind != "oracle":
            continue
        if stanley.expand_affine_schur(w).coeffs != stanley.oracle_expand(w).coeffs:
            raise SystemExit(f"expand_affine_schur and oracle_expand differ on {w}")
        checks += 1
    for _, _, shape in workloads.all_ops("gw-table"):
        if shape.d != 0:
            continue
        table = stanley.expand_cylindric(shape).coeffs
        m, n = shape.ctype.m, shape.ctype.n
        for nu in partitions.partitions_in_box(m, n - m):
            if table.get((nu, 0), 0) != symfunc.lr_coeff(shape.lam, shape.mu, nu):
                raise SystemExit(f"degree-0 slice and lr_coeff differ on {shape}, {nu}")
        checks += 1
    return checks


def main() -> int:
    for workload in workloads.WORKLOADS:
        run.import_cylkit(workload)
    checks = cross_check()
    digests = {}
    for workload in workloads.WORKLOADS:
        for op in workloads.all_ops(workload):
            digests[op[0]] = workloads.digest(workloads.run_op(op))
    commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=run.ROOT,
                            capture_output=True, text=True, check=False).stdout.strip()
    with open(run.BENCH_DIR / "goldens.json", "w") as f:
        json.dump({"commit": commit or "unknown",
                   "python": platform.python_version(),
                   "cross_checks": checks,
                   "digests": digests}, f, indent=0, sort_keys=True)
        f.write("\n")
    print(f"{len(digests)} digests, {checks} cross-checked ops", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
