#!/usr/bin/env python3
"""Run every headline computation and print a compact summary table.

Covers the full classification table for every supported number of
factors, the rank-3 pair report, the graded torsion reports of all variety
configurations, and the eight randomized Witt identity suites at full scale.  With
``--certificates DIR`` every command also emits a machine-checkable
certificate and immediately re-validates it.

Usage:
    python scripts/reproduce_all.py [--trials 100] [--seeds 1 2 3 4 5]
                                    [--certificates DIR]
"""

import argparse
import json
import os
import pathlib
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from sdinv import certificate as certmod
from sdinv import cli
from sdinv.errors import N_RANGE
from sdinv.kgamma import graded_torsion
from sdinv.presets import sl4x4_report, theorem_table
from sdinv.wittq import IDENTITY_IDS, verify_identity


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--trials", type=int, default=100)
    ap.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3, 4, 5])
    ap.add_argument("--certificates", metavar="DIR", default=None)
    args = ap.parse_args()

    t0 = time.time()

    print("== classification table ==")
    header = f"{'n':>2}  {'Inv3(H)':>8}  {'Inv3(G)':>8}  {'CH2 tors':>9}  {'Sdec/Dec H':>10}  {'Sdec/Dec G':>10}  prov"
    print(header)
    rows = theorem_table(N_RANGE, trials=min(args.trials, 20), seed=args.seeds[0])
    for n, row in zip(N_RANGE, rows):
        print(
            f"{n:>2}  {row.inv3_ind_h.group.label():>8}  {row.inv3_ind_g.group.label():>8}  "
            f"{row.chow2_tors.group.label():>9}  {row.sdec_mod_dec_h.group.label():>10}  "
            f"{row.sdec_mod_dec_g.group.label():>10}  {row.chow2_tors.provenance}"
        )

    print("\n== rank-3 pair (sl4x4) ==")
    row = sl4x4_report()
    print(
        f"Inv3_ind = {row.inv3_ind_h.group.label()}, "
        f"CH2 torsion = {row.chow2_tors.group.label()}, "
        f"Sdec/Dec = {row.sdec_mod_dec_h.group.label()}, "
        f"all normalized invariants semi-decomposable: {row.chow2_tors.group.is_trivial}"
    )

    print("\n== graded torsion reports ==")
    for name in ("conic1", "split:2,2", "conics3", "conics4", "deg4pair"):
        g = graded_torsion(name)
        print(
            f"{name:>10}: split index {g.split_index}, epsilons {list(g.epsilon)}, "
            f"total torsion {g.total_torsion_order}, counting identity {g.counting_identity_holds}"
        )
        assert g.counting_identity_holds

    print("\n== witt identity suites ==")
    for identity in IDENTITY_IDS:
        passes = 0
        want = 0
        for seed in args.seeds:
            cases = verify_identity(identity, args.trials, seed)
            passes += sum(1 for c in cases if c.verdict)
            want += len(cases)
        status = "ok" if passes == want else "FAILED"
        print(f"{identity:>20}: {passes}/{want} {status}")
        if passes != want:
            return 1

    if args.certificates:
        outdir = pathlib.Path(args.certificates)
        outdir.mkdir(parents=True, exist_ok=True)
        commands = (
            [["inv3", "--preset", f"sl2n:{n}"] for n in N_RANGE]
            + [["inv3", "--preset", "sl4x4"], ["sl4x4"]]
            + [["chow2", "--preset", p] for p in ("conics3", "conics4", "deg4pair")]
            + [["theorem", "--n", str(n)] for n in N_RANGE]
            + [
                ["witt", "verify", "--identity", i, "--trials", str(args.trials), "--seed", "1"]
                for i in IDENTITY_IDS
            ]
        )
        print(f"\n== certificates -> {outdir} ==")
        # the reports are not shown; the certificate files are what is checked
        with open(os.devnull, "w") as sink:
            for i, cmd in enumerate(commands):
                path = outdir / f"{i:02d}_{cmd[0]}.json"
                code = cli.run(cmd + ["--certificate", str(path), "--json"], out=sink)
                assert code == 0, cmd
                ok, failures = certmod.check_certificate(json.loads(path.read_text()))
                print(f"{' '.join(cmd):<60} -> {path.name}: {'valid' if ok else failures}")
                if not ok:
                    return 1

    print(f"\nall done in {time.time() - t0:.1f}s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
