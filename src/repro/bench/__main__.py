"""Regenerate every paper artifact from the command line.

Usage::

    python -m repro.bench                 # everything, default scale
    python -m repro.bench figure1 table1  # a subset
    python -m repro.bench --records 1000 --ops 5000 figure1
    python -m repro.bench --full figure2  # the 1k..128k sweep + 1M point

``EXPERIMENTS`` lists the declarations each experiment prints and
``ARTIFACTS`` how each ``bench_results/*.txt`` file is composed from
them; the CLI and ``benchmarks/`` both go through :func:`compose`, so
what a file commits is what its experiment prints.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass, replace
from typing import Callable, Dict, List, Sequence, Tuple, Union

from .ablation import (
    ABLATION_AUDIT_BATCH,
    ABLATION_DEVICES,
    ABLATION_ENCRYPTION,
    ABLATION_ERASURE_PROPAGATION,
    ABLATION_FSYNC,
    GDPR_SLOWDOWN,
)
from .backends import BACKENDS, FEATURE_ORDER
from .figure1 import FIGURE1
from .figure2 import FIGURE2, FULLSCAN_AT_SCALE
from .micro import (
    MICRO_AOF_PERSISTENCE,
    MICRO_FSYNC,
    MICRO_LOGGING,
    MICRO_REWRITE_COST,
    MICRO_TLS_BANDWIDTH,
)
from .reporting import Row, Scenario, Text, render, sweep
from .scaling import (
    AUTOSCALE_DEMO,
    CONCURRENCY,
    ERASURE_FANOUT,
    HOCKEY_STICK,
    REPLICATED_ERASURE_FANOUT,
    REPLICATION,
    RESHARDING,
    SCALING,
    WORKERS,
    WORKERS_SKEW,
)
from .table1 import TABLE1_AS_PRINTED, TABLE1_COMPARISON
from .tenancy import TENANCY
from .tiering import TIERING

Declaration = Union[Scenario, Text]

# Each experiment prints its declarations in order: the first one's
# title is the banner, each later one's heads its own table.  Every
# bench_results file is printed by exactly one experiment.
EXPERIMENTS = {
    "table1": (TABLE1_COMPARISON, TABLE1_AS_PRINTED),
    "figure1": (FIGURE1,),
    "figure2": (FIGURE2, FULLSCAN_AT_SCALE),
    "micro": (MICRO_LOGGING, MICRO_FSYNC, MICRO_TLS_BANDWIDTH,
              MICRO_AOF_PERSISTENCE, MICRO_REWRITE_COST),
    "ablations": (ABLATION_FSYNC, ABLATION_AUDIT_BATCH, ABLATION_DEVICES,
                  ABLATION_ENCRYPTION, ABLATION_ERASURE_PROPAGATION,
                  GDPR_SLOWDOWN),
    "scaling": (SCALING, ERASURE_FANOUT),
    "resharding": (RESHARDING,),
    "concurrency": (CONCURRENCY,),
    "hockey_stick": (HOCKEY_STICK,),
    "workers": (WORKERS, AUTOSCALE_DEMO),
    "workers_skew": (WORKERS_SKEW,),
    "replication": (REPLICATION, REPLICATED_ERASURE_FANOUT),
    "backends": (BACKENDS,),
    "tiering": (TIERING,),
    "tenancy": (TENANCY,),
}

RULE = "=" * 72


@dataclass(frozen=True)
class TableOf:
    """An artifact piece: a scenario's table without the summary its
    experiment prints under it."""

    scenario: Scenario


# A piece of printed text: a literal line, a declaration's body, or a
# scenario's bare table.
Piece = Union[str, Declaration, TableOf]
RowsOf = Callable[[Scenario], Sequence[Row]]


def printed(declarations: Sequence[Declaration]) -> List[Piece]:
    """Everything an experiment prints, as pieces: banner, bodies,
    footnotes, and the later declarations' titles."""
    pieces: List[Piece] = []
    for index, declaration in enumerate(declarations):
        pieces += ([RULE, declaration.title, RULE] if index == 0
                   else ["", declaration.title])
        pieces.append(declaration)
        if declaration.footnote:
            pieces += ["", declaration.footnote]
    return pieces


def compose(pieces: Sequence[Piece], rows_of: RowsOf) -> str:
    """The text of ``pieces``, one per line; ``rows_of(scenario)``
    supplies each scenario's swept rows."""
    lines = []
    for piece in pieces:
        if isinstance(piece, Text):
            piece = piece.text()
        elif isinstance(piece, Scenario):
            piece = render(piece, rows_of(piece))
        elif isinstance(piece, TableOf):
            piece = render(replace(piece.scenario, summary=None),
                           rows_of(piece.scenario))
        lines.append(piece)
    return "\n".join(lines)


# bench_results file -> its pieces.  Most files are one declaration's
# body; three are everything their experiment prints; backends.txt and
# tiering.txt are the table alone.
ARTIFACTS: Dict[str, Sequence[Piece]] = {
    "table1.txt": (TABLE1_AS_PRINTED,),
    "table1_comparison.txt": (TABLE1_COMPARISON,),
    "figure1.txt": (FIGURE1,),
    "figure2.txt": (FIGURE2,),
    "micro_logging.txt": (MICRO_LOGGING,),
    "micro_fsync.txt": (MICRO_FSYNC,),
    "micro_tls_bandwidth.txt": (MICRO_TLS_BANDWIDTH,),
    "micro_aof_persistence.txt": (MICRO_AOF_PERSISTENCE,),
    "micro_rewrite_cost.txt": (MICRO_REWRITE_COST,),
    "ablation_fsync.txt": (ABLATION_FSYNC,),
    "ablation_audit_batch.txt": (ABLATION_AUDIT_BATCH,),
    "ablation_devices.txt": (ABLATION_DEVICES,),
    "ablation_encryption.txt": (ABLATION_ENCRYPTION,),
    "ablation_erasure_propagation.txt": (ABLATION_ERASURE_PROPAGATION,),
    "gdpr_slowdown.txt": (GDPR_SLOWDOWN,),
    "scaling.txt": printed(EXPERIMENTS["scaling"]),
    "resharding.txt": printed(EXPERIMENTS["resharding"]),
    "replication.txt": printed(EXPERIMENTS["replication"]),
    "concurrency_hockey_stick.txt": (HOCKEY_STICK,),
    "concurrency_workers.txt": (
        WORKERS, "",
        "autoscale demo (EWMA-triggered worker raise, then spill to a "
        "spare shard):",
        AUTOSCALE_DEMO),
    "concurrency_workers_skew.txt": (WORKERS_SKEW,),
    "backends.txt": (TableOf(BACKENDS),),
    "tiering.txt": (TableOf(TIERING),),
    "tenancy.txt": (TENANCY,),
}

DEFAULT_RECORDS = 300
DEFAULT_OPS = 800
PIN_FLAGS = ("shards", "clients", "cores", "replicas")


def _int_at_least(minimum: int):
    """argparse type: an integer no smaller than ``minimum`` (sizes of 0
    used to reach the generators and die on "empty zipfian range")."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"invalid int value: {text!r}")
        if value < minimum:
            raise argparse.ArgumentTypeError(
                f"must be >= {minimum}, got {value}")
        return value
    return parse


def _features(text: str) -> Tuple[str, ...]:
    """argparse type: a non-empty comma-separated list of backend
    feature rows."""
    features = tuple(name.strip() for name in text.split(",")
                     if name.strip())
    unknown = [name for name in features if name not in FEATURE_ORDER]
    if unknown or not features:
        raise argparse.ArgumentTypeError(
            f"expected one or more of {', '.join(FEATURE_ORDER)}; "
            f"got {text!r}")
    return features


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Regenerate the paper's tables and figures.")
    parser.add_argument("experiments", nargs="*",
                        choices=[*EXPERIMENTS, []],
                        help="subset to run (default: all)")
    parser.add_argument("--records", type=_int_at_least(1),
                        default=DEFAULT_RECORDS,
                        help="YCSB records per phase")
    parser.add_argument("--ops", type=_int_at_least(0),
                        default=DEFAULT_OPS,
                        help="YCSB operations per phase")
    parser.add_argument("--full", action="store_true",
                        help="full Figure 2 sweep and every sweep's "
                             "wider axis values (slow)")
    for flag in PIN_FLAGS:
        parser.add_argument(f"--{flag}", type=_int_at_least(1),
                            default=None,
                            help=f"pin the `{flag}` axis of any sweep "
                                 "that has one to this value")
    parser.add_argument("--features", type=_features, default=None,
                        help="comma-separated backend feature rows for "
                             "the backends experiment (default: all)")
    args = parser.parse_args(argv)
    pins = {flag: getattr(args, flag) for flag in PIN_FLAGS}
    pins["feature"] = args.features

    def rows_of(scenario: Scenario) -> Sequence[Row]:
        return sweep(scenario, args.records, args.ops, full=args.full,
                     pins=pins)

    for name in args.experiments or EXPERIMENTS:
        print("\n" + compose(printed(EXPERIMENTS[name]), rows_of))
    return 0


if __name__ == "__main__":
    sys.exit(main())
