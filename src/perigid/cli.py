"""Command-line front-end.

Every command reads one JSON input document, prints a JSON verdict on stdout
and exits 0 when the analysis ran (even when the verdict is negative), or 2
on invalid input with diagnostics on stderr.  Identical invocations with the
same seed produce byte-identical stdout.  Every ValueError raised by the
library on bad input (documents, gain graphs, flag values) maps to exit 2.
"""

from __future__ import annotations

import argparse
import json
import sys

from .body_bar import (
    DEFAULT_EDGE_CAP,
    build_body_bar_gain_graph,
    count_rank,
    decide_body_bar_global,
)
from .document import (
    covering_to_dot,
    covering_to_json,
    graph_to_document,
    parse_document,
    parse_lattice_matrix,
)
from .framework import Framework, Lattice
from .gain_graph import BAR_JOINT, BODY_BAR, covering_window
from .motion import build_flex_path, sample_path, verify_path
from .rigidity import decide_global_rigidity, is_rigid, is_vertex_redundantly_rigid

EXIT_OK = 0
EXIT_INVALID = 2


class CliError(Exception):
    pass


def _read_json(path: str):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc}") from exc
    # JSONDecodeError and UnicodeDecodeError are ValueErrors; too deep a
    # nesting raises RecursionError
    except (ValueError, RecursionError) as exc:
        raise CliError(f"{path}: not valid JSON: {exc}") from exc


def _load_document(path: str):
    try:
        return parse_document(_read_json(path))  # CliError is no ValueError
    except ValueError as exc:
        raise CliError(f"{path}: {exc}") from exc


def _resolve_lattice(doc, args) -> Lattice | None:
    if args.lattice_file:
        return parse_lattice_matrix(_read_json(args.lattice_file), doc.d, doc.graph.k, args.lattice_file)
    return doc.lattice


def _require_mode(doc, mode: str):
    if doc.graph.mode != mode:
        raise CliError(f"expected a {mode} document, got {doc.graph.mode}")


def _emit(payload: dict) -> None:
    sys.stdout.write(json.dumps(payload, indent=2) + "\n")


def cmd_rigid(args) -> int:
    doc = _load_document(args.file)
    _require_mode(doc, BAR_JOINT)
    lattice = _resolve_lattice(doc, args)
    _emit(is_rigid(doc.graph, doc.d, lattice, seed=args.seed).to_json())
    return EXIT_OK


def cmd_vrr(args) -> int:
    doc = _load_document(args.file)
    _require_mode(doc, BAR_JOINT)
    lattice = _resolve_lattice(doc, args)
    ok, details = is_vertex_redundantly_rigid(doc.graph, doc.d, lattice, seed=args.seed)
    _emit({"vertex_redundantly_rigid": ok, "vertices": details, "seed": args.seed})
    return EXIT_OK


def cmd_global(args) -> int:
    doc = _load_document(args.file)
    _require_mode(doc, BAR_JOINT)
    lattice = _resolve_lattice(doc, args)
    _emit(decide_global_rigidity(doc.graph, doc.d, lattice, seed=args.seed).to_json())
    return EXIT_OK


def cmd_bodybar(args) -> int:
    doc = _load_document(args.file)
    _require_mode(doc, BODY_BAR)
    if args.action == "build":
        _emit(graph_to_document(build_body_bar_gain_graph(doc.graph, doc.d), doc.d))
    elif args.action == "counts":
        _emit(count_rank(doc.graph, doc.d, args.edge_cap).to_json())
    else:  # global
        lattice = _resolve_lattice(doc, args)
        _emit(decide_body_bar_global(doc.graph, doc.d, lattice, seed=args.seed).to_json())
    return EXIT_OK


def cmd_flexpath(args) -> int:
    doc = _load_document(args.file)
    _require_mode(doc, BAR_JOINT)
    lattice = _resolve_lattice(doc, args)
    if lattice is None:
        raise CliError("flexpath requires an explicit lattice")
    if doc.placement is None or doc.q is None:
        raise CliError("flexpath requires both 'placement' and 'q'")
    framework = Framework(doc.graph, lattice, doc.placement)
    path = build_flex_path(framework, doc.q)
    certificate = verify_path(path, framework, doc.q)
    if args.out:
        import csv  # only this branch writes CSV

        rows = sample_path(path, args.samples, args.window)
        try:
            with open(args.out, "w", newline="", encoding="utf-8") as fh:
                writer = csv.writer(fh)
                writer.writerow(
                    ["t", "vertex", "shift"] + [f"x{i + 1}" for i in range(2 * doc.d)]
                )
                for row in rows:
                    writer.writerow(
                        [repr(row["t"]), row["vertex"], ";".join(str(s) for s in row["shift"])]
                        + [repr(c) for c in row["coords"]]
                    )
        except OSError as exc:
            raise CliError(f"cannot write {args.out}: {exc}") from exc
    payload = certificate.to_json()
    payload["csv"] = args.out
    _emit(payload)
    return EXIT_OK


def cmd_covering(args) -> int:
    doc = _load_document(args.file)
    window = covering_window(doc.graph, args.window)
    if args.format == "dot":
        text = covering_to_dot(window)
        if hasattr(sys.stdout, "buffer"):  # UTF-8 whatever the locale
            sys.stdout.flush()
            sys.stdout.buffer.write(text.encode("utf-8"))
        else:  # a text-only stream, such as io.StringIO
            sys.stdout.write(text)
    else:
        _emit(covering_to_json(window))
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """Reports bad flags in the `error: ` form of every other invalid input,
    followed by the usage line, and exits 2."""

    def error(self, message: str):
        self.exit(EXIT_INVALID, f"error: {self.prog}: {message}\n{self.format_usage()}")


def _int_at_least(low: int):
    """argparse type: an integer >= low."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value

    return parse


def _add_common(parser: argparse.ArgumentParser, seeded: bool = True) -> None:
    parser.add_argument("file", help="input document (JSON)")
    parser.add_argument("--lattice-file", help="JSON file with a d x k lattice matrix")
    if seeded:
        parser.add_argument("--seed", type=int, default=0)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="perigid",
        description="Rigidity analysis of fixed-lattice periodic frameworks from quotient gain graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("rigid", help="periodic rigidity verdict")
    _add_common(p)
    p.set_defaults(func=cmd_rigid)

    p = sub.add_parser("vrr", help="vertex-redundant rigidity verdict")
    _add_common(p)
    p.set_defaults(func=cmd_vrr)

    p = sub.add_parser("global", help="global rigidity decision")
    _add_common(p)
    p.set_defaults(func=cmd_global)

    p = sub.add_parser("bodybar", help="body-bar pipeline")
    p.add_argument("action", choices=["global", "counts", "build"])
    _add_common(p)
    p.add_argument("--edge-cap", type=_int_at_least(0), default=DEFAULT_EDGE_CAP)
    p.set_defaults(func=cmd_bodybar)

    p = sub.add_parser("flexpath", help="build and certify the flex between p and q")
    _add_common(p, seeded=False)
    p.add_argument("--samples", type=_int_at_least(2), default=11)
    p.add_argument("--window", type=_int_at_least(0), default=1)
    p.add_argument("--out", help="write the sampled trajectory as CSV")
    p.set_defaults(func=cmd_flexpath)

    p = sub.add_parser("covering", help="export a finite covering window")
    p.add_argument("file", help="input document (JSON)")
    p.add_argument("--window", type=_int_at_least(0), default=1)
    p.add_argument("--format", choices=["dot", "json"], default="json")
    p.set_defaults(func=cmd_covering)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # bad flags exit 2 through _Parser.error; --help exits 0
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (CliError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
