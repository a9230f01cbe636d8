"""Recompute perfbench/pins.json from the program as it is now.

    python3 perfbench/pin.py

The pins are digests of every output group of each workload: the
seed-independent outputs once, the seeded outputs for PINNED_SEEDS.  They
guard against regressions and are not a source of truth; the identities
checked in each workload are.  Re-pin only in a change that alters outputs
on purpose, and say so.
"""

from __future__ import annotations

import json

import harness
import ladder
import verify_mix
import witt_warm

PINNED_SEEDS = list(range(32)) + [harness.HELD_OUT_SEED]


def _digests(rec: harness.Recorder, seeded: bool) -> dict[str, str]:
    if rec.failed() or rec.harness_errors:
        raise SystemExit(f"perfbench: outputs fail their checks: {rec.problems + rec.harness_errors}")
    return {k: d for k, (d, s) in sorted(rec.digests.items()) if s == seeded}


def main():
    harness.load_gwitt()
    pins = {}

    seeded = {}
    for seed in PINNED_SEEDS:
        rec = harness.Recorder()
        ladder.run_in_process(seed, rec)
        seeded[str(seed)] = _digests(rec, True)
    pins["ladder_cold"] = {"fixed": _digests(rec, False), "seeded": seeded}

    seeded = {}
    for seed in PINNED_SEEDS:
        setup_rec, rec = harness.Recorder(), harness.Recorder()
        witt_warm.run_round(witt_warm.setup(seed, setup_rec), rec)
        seeded[str(seed)] = _digests(rec, True)
    pins["witt_warm"] = {"fixed": _digests(setup_rec, False), "seeded": seeded}

    fixed = {}
    state = verify_mix.setup(0, harness.Recorder())
    for trace in (False, True):
        rec = harness.Recorder(trace=trace)
        verify_mix.run_round(state, rec)
        fixed.update(_digests(rec, False))
    seeded = {}
    for seed in PINNED_SEEDS:
        state = verify_mix.setup(seed, harness.Recorder())
        state["tambara"] = []  # seed-independent and pinned above
        rec = harness.Recorder()
        verify_mix.run_round(state, rec)
        seeded[str(seed)] = _digests(rec, True)
    pins["verify_mix"] = {"fixed": fixed, "seeded": seeded}

    (harness.HERE / "pins.json").write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
