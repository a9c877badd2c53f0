"""``python -m repro learn`` — the learned-macromodel workbench.

Subcommands:

- ``characterize``  sweep the component population through the fast
  engines, write the labeled window datasets to a JSON file;
- ``fit``           fit ridge models from a dataset file (or
  characterize on the fly), persist them in the artifact store,
  print CV error;
- ``evaluate``      fit + score learned vs the fixed macromodels on
  held-out stimulus, per component;
- ``report``        one-screen summary of the models currently in
  the artifact store for the standard population.

Everything is seeded and store-backed: re-running a step with the
same arguments is a cache hit, not a re-simulation.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any, Dict, List, Optional, Sequence, Union

__all__ = ["main", "build_parser"]


def _workers(text: str) -> Union[int, str]:
    """A ``--workers`` value: a positive integer or ``auto``."""
    if text.strip().lower() == "auto":
        return "auto"
    try:
        n = int(text)
    except ValueError:
        n = 0
    if n < 1:
        raise argparse.ArgumentTypeError(
            f"expected a positive integer or 'auto', got {text!r}")
    return n


def _population(names: Optional[Sequence[str]] = None):
    from repro.estimation.learned.characterize import POPULATION

    specs = list(POPULATION)
    if names:
        wanted = set(names)
        specs = [s for s in specs if s["name"] in wanted]
        missing = wanted - {s["name"] for s in specs}
        if missing:
            known = ", ".join(s["name"] for s in POPULATION)
            raise SystemExit(
                f"unknown component(s) {sorted(missing)}; "
                f"population: {known}")
    return specs


def _config(args) -> "Any":
    from repro.estimation.learned.features import FeatureConfig

    return FeatureConfig(window=args.window,
                         max_signals=args.max_signals)


def cmd_characterize(args) -> int:
    from repro.estimation.learned.characterize import (
        characterize_population,
    )

    config = _config(args)
    datasets = characterize_population(
        _population(args.component), config, cycles=args.cycles,
        seed=args.seed, runs=args.runs, workers=args.workers)
    payload = {"schema": "repro.learn.characterize/1",
               "seed": args.seed,
               "datasets": [d.to_dict() for d in datasets]}
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
    for d in datasets:
        print(f"  {d.name:12s} windows={len(d):4d} "
              f"signals={len(d.signals):2d} "
              f"features={len(d.feature_names):3d} "
              f"fingerprint={d.fingerprint[:12]}")
    if args.out:
        print(f"wrote {len(datasets)} dataset(s) to {args.out}")
    return 0


def cmd_fit(args) -> int:
    from repro.estimation.learned.characterize import (
        WindowDataset,
        characterize_population,
    )
    from repro.estimation.learned.model import fit_learned, save_model

    if args.dataset:
        with open(args.dataset) as fh:
            payload = json.load(fh)
        datasets = [WindowDataset.from_dict(d)
                    for d in payload["datasets"]]
    else:
        datasets = characterize_population(
            _population(args.component), _config(args),
            cycles=args.cycles, seed=args.seed, runs=args.runs,
            workers=args.workers)
    for dataset in datasets:
        model = fit_learned(dataset, folds=args.folds)
        save_model(model)
        rep = model.report
        print(f"  {model.name:12s} cv_mape={rep.cv_mape:7.4f} "
              f"train_mape={rep.train_mape:7.4f} "
              f"terms={model.n_terms:3d} "
              f"pruned={len(rep.pruned):3d} "
              f"-> store[{model.fingerprint[:12]}]")
    print(f"fitted and stored {len(datasets)} model(s)")
    return 0


def cmd_evaluate(args) -> int:
    from repro.estimation.learned.evaluate import evaluate_component
    from repro.rtl.components import make_component

    config = _config(args)
    rows: List[Dict[str, Any]] = []
    for spec in _population(args.component):
        component = make_component(spec["component"], spec["width"])
        rows.append(evaluate_component(component, config,
                                       seed=args.seed,
                                       train_cycles=args.cycles,
                                       train_runs=args.runs))
    wins = sum(1 for r in rows if r["learned_wins"])
    if args.json:
        print(json.dumps({"components": rows, "learned_wins": wins},
                         indent=2, sort_keys=True))
        return 0
    header = f"  {'component':12s} {'learned':>9s} {'best fixed':>11s}  winner"
    print(header)
    for r in rows:
        learned = r["techniques"]["learned"]["mape"]
        fixed = r["best_fixed_mape"]
        mark = "learned" if r["learned_wins"] else "fixed"
        print(f"  {r['component']:12s} {learned:9.4f} {fixed:11.4f}  "
              f"{mark}")
    print(f"learned wins on {wins}/{len(rows)} components "
          f"(per-window MAPE, held-out stimulus)")
    return 0


def cmd_report(args) -> int:
    from repro import store as artifact_store
    from repro.estimation.learned.model import load_model
    from repro.rtl.components import make_component

    config = _config(args)
    st = artifact_store.get_store()
    found = 0
    for spec in _population(args.component):
        component = make_component(spec["component"], spec["width"])
        model = load_model(component.circuit.fingerprint(), config,
                           store=st)
        if model is None:
            print(f"  {spec['name']:12s} (no stored model)")
            continue
        found += 1
        rep = model.report
        cv = f"{rep.cv_mape:7.4f}" if rep else "      ?"
        print(f"  {spec['name']:12s} cv_mape={cv} "
              f"signals={len(model.signals):2d} "
              f"terms={model.n_terms:3d} seed={model.seed}")
    stats = st.stats()
    print(f"{found} stored model(s); store: {stats['mem_hits']} mem "
          f"hits, {stats['disk_hits']} disk hits, "
          f"{stats['misses']} misses")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro learn",
        description="Characterize, fit, and evaluate learned power "
                    "macromodels over the component population.")
    sub = parser.add_subparsers(dest="subcommand")

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--component", action="append", metavar="NAME",
                       help="restrict to a population member "
                            "(repeatable; default: all)")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--cycles", type=int, default=1024)
        p.add_argument("--runs", type=int, default=8)
        p.add_argument("--window", type=int, default=64)
        p.add_argument("--max-signals", type=int, default=16)
        p.add_argument("--workers", type=_workers, default="auto",
                       metavar="N|auto",
                       help="characterization worker processes "
                            "(default: auto, the CPU count)")

    p = sub.add_parser("characterize",
                       help="generate labeled window datasets")
    common(p)
    p.add_argument("--out", metavar="FILE",
                   help="write datasets JSON here")
    p.set_defaults(fn=cmd_characterize)

    p = sub.add_parser("fit", help="fit + store ridge models")
    common(p)
    p.add_argument("--dataset", metavar="FILE",
                   help="characterize output to fit from (default: "
                        "characterize on the fly)")
    p.add_argument("--folds", type=int, default=4)
    p.set_defaults(fn=cmd_fit)

    p = sub.add_parser("evaluate",
                       help="learned vs fixed macromodels, held out")
    common(p)
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_evaluate)

    p = sub.add_parser("report", help="stored models summary")
    common(p)
    p.set_defaults(fn=cmd_report)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if not getattr(args, "fn", None):
        parser.print_help()
        return 2
    try:
        return args.fn(args)
    except BrokenPipeError:       # | head
        try:
            sys.stdout.close()
        except Exception:
            pass
        return 0


if __name__ == "__main__":     # pragma: no cover
    raise SystemExit(main())
