"""Correctness check of one benchmark run's sweep outputs.

Every sweep's results CSV must hold exactly one row per (tuple, trial,
applicable algorithm), with finite `rsnr_db`, a `seed` column equal to
`seeding.derive_seed` of its tuple, and bytes that round-trip through
`harness.read_results`/`harness.write_results`. At the end of a run the
pooled per-tuple RSNR means must agree with reference.json within
Monte-Carlo error. A trial that breaks any rule counts as failed.
"""

from __future__ import annotations

import csv
import math
import os
from collections import defaultdict

from qcslab import harness, seeding

MULTIBIT = ("oracle_ls", "bpdn")
ONEBIT = ("biht_l1", "biht_l2")
# Agreement with the reference: |mean - ref| <= Z * sd_ref * sqrt(1/n + 1/n_ref) + FLOOR_DB.
Z = 6.0
FLOOR_DB = 0.1


def _budget(value, n: int) -> int:
    # Resolved here rather than by harness.parse_budget, so that a parser
    # bug shows up as a row-count failure instead of agreeing with itself.
    text = str(value).strip()
    if text.lower().endswith("n"):
        return int(round(float(text[:-1] or 1) * n))
    return int(text)


def expected_rows(cfg: dict) -> dict:
    """(budget, bit_depth, isnr, trial) -> algorithms that must have a row."""
    out = {}
    for budget in (_budget(b, cfg["n"]) for b in cfg["budgets"]):
        for bits in cfg["bit_grid"]:
            family = ONEBIT if bits == 1 else MULTIBIT
            algs = tuple(a for a in cfg["algorithms"] if a in family)
            m = budget // bits
            if m < max(1, cfg["k"]) or not algs:
                continue
            for isnr in cfg["isnr_list"]:
                for trial in range(cfg["trials"]):
                    out[(budget, bits, float(isnr), trial)] = algs
    return out


class RunCheck:
    """Accumulates per-trial failures and pooled RSNR over a run's sweeps."""

    def __init__(self):
        self.attempted = 0
        self.failed = set()  # (sweep, budget, bit_depth, isnr, trial)
        self.pooled = defaultdict(list)  # (budget, bits, isnr, alg) -> [(sweep, trial, rsnr)]
        self.problems = []

    def _fail(self, keys, why):
        self.failed.update(keys)
        if len(self.problems) < 20:
            self.problems.append(why)

    def sweep(self, r: int, cfg: dict, out_dir: str) -> list:
        """Check sweep r's outputs; returns its aggregate rsnr_mean values."""
        expected = expected_rows(cfg)
        self.attempted += len(expected)
        all_keys = [(r, *key) for key in expected]
        path = os.path.join(out_dir, "results.csv")
        try:
            rows = harness.read_results(path)
            copy = path + ".roundtrip"
            harness.write_results(harness.ResultTable(rows=rows, aggregates=[]), copy)
            with open(path, "rb") as a, open(copy, "rb") as b:
                same = a.read() == b.read()
            os.remove(copy)
            with open(os.path.join(out_dir, "aggregates.csv"), newline="", encoding="utf-8") as fh:
                agg_means = [float(rec["rsnr_mean"]) for rec in csv.DictReader(fh)]
        except (OSError, ValueError, KeyError, IndexError) as exc:
            self._fail(all_keys, f"sweep {r}: unreadable output: {exc}")
            return []
        if not same:
            self._fail(all_keys, f"sweep {r}: results CSV does not round-trip")

        seen = defaultdict(list)
        for row in rows:
            key = (row.budget, row.bit_depth, row.isnr_db, row.trial)
            seen[key].append(row)
            seed = seeding.derive_seed(
                cfg["master_seed"], cfg["n"], cfg["k"], float(cfg.get("sigma_x2", 1.0)),
                row.budget, row.bit_depth, row.isnr_db, row.trial,
            )
            if row.seed != seed:
                self._fail([(r, *key)], f"sweep {r}: seed mismatch at {key}")
            if not math.isfinite(row.rsnr_db):
                self._fail([(r, *key)], f"sweep {r}: non-finite rsnr_db at {key}")
        for key in seen.keys() - expected.keys():
            self._fail(all_keys, f"sweep {r}: unexpected rows for {key}")
        for key, algs in expected.items():
            got = sorted(row.algorithm for row in seen.get(key, ()))
            if got != sorted(algs):
                self._fail([(r, *key)], f"sweep {r}: rows {got} != {sorted(algs)} at {key}")
                continue
            for row in seen[key]:
                self.pooled[key[:3] + (row.algorithm,)].append((r, key[3], row.rsnr_db))
        return agg_means

    def against_reference(self, ref: dict) -> None:
        """Compare pooled per-tuple RSNR means with the reference entry of the workload."""
        table = {tuple(t[:4]): (t[4], t[5]) for t in ref["tuples"]}
        n_ref = ref["trials"]
        for key, vals in self.pooled.items():
            trials = [(r, *key[:3], t) for r, t, _ in vals]
            if key not in table:
                self._fail(trials, f"tuple {key} missing from the reference")
                continue
            mean_ref, sd_ref = table[key]
            mean = sum(v for _, _, v in vals) / len(vals)
            tol = Z * sd_ref * math.sqrt(1.0 / len(vals) + 1.0 / n_ref) + FLOOR_DB
            if abs(mean - mean_ref) > tol:
                self._fail(trials, f"tuple {key}: rsnr mean {mean:.3f} vs reference "
                                   f"{mean_ref:.3f} (tolerance {tol:.3f})")
