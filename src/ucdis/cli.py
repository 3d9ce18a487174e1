"""Command-line front end: bounds, figure presets, file coding, experiments.

Exit codes: 0 success, 1 validation error, 2 I/O error, 3 declared decode
failure (almost-lossless strategy only).  With --json, errors are emitted as
machine-readable JSON on stderr.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import stat
import sys

import numpy as np

# every command runs these; bounds, ducompm and harness are imported by the
# commands that run them, so a lossless encode or decode never loads them
from . import codec
from .sources import MARKOV1, MEMORYLESS, SourceFamily, context_counts

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_IO = 2
EXIT_DECODE_FAILURE = 3


class _DeclaredFailure(Exception):
    """ducompm found no unique candidate; ``main`` exits 3."""


class _Parser(argparse.ArgumentParser):
    # argparse exits with code 2 on bad flags; remap to the validation code
    def error(self, message):
        raise ValueError(message)


def _read_bytes(path: str) -> bytes:
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except OSError as e:
        raise OSError(f"cannot read {path}: {e}") from e


def _write_bytes(path: str, data: bytes):
    """Write ``data`` over ``path`` in place, then cut a longer regular file to length.

    Opening with O_TRUNC empties a non-empty file first, and ext4 (with its
    default auto_da_alloc) then flushes that file on close: about 0.1 ms per
    output against a few µs in place.  The bytes, the inode and a new file's
    mode (0o666 & ~umask) are those of ``open(path, "wb")``; nothing calls
    fsync.  A failed write cuts the file to the bytes written, so the old
    file's tail never follows the new bytes.
    """
    try:
        fd = os.open(path, os.O_WRONLY | os.O_CREAT | getattr(os, "O_BINARY", 0), 0o666)
        try:
            info = os.fstat(fd)
            # only a regular file longer than what is written needs a cut
            old_size = info.st_size if stat.S_ISREG(info.st_mode) else 0
            view, written = memoryview(data), 0
            try:
                while written < len(view):
                    written += os.write(fd, view[written:])
            finally:
                if old_size > written:
                    os.ftruncate(fd, written)
        finally:
            os.close(fd)
    except OSError as e:
        raise OSError(f"cannot write {path}: {e}") from e


def _symbols_from_file(path: str, k: int) -> np.ndarray:
    data = _read_bytes(path)
    symbols = np.frombuffer(data, dtype=np.uint8).astype(np.int64)
    if symbols.size and symbols.max() >= k:
        raise ValueError(f"{path} holds symbol {int(symbols.max())} >= alphabet size --k {k}")
    return symbols


def _workers(args) -> int:
    if args.threads is None:
        return 1
    if args.threads < 1:
        raise ValueError(f"--threads must be >= 1, got {args.threads}")
    return args.threads


def cmd_bounds(args) -> int:
    from . import bounds

    family = SourceFamily(args.family, args.k)
    if args.strategy != "ucomp" and args.m is None:
        raise ValueError(f"--m is required for strategy {args.strategy}")
    if args.strategy == "ducompm" and args.pe is None:
        raise ValueError("--pe is required for strategy ducompm")
    breakdown = bounds.redundancy(args.strategy, family, args.n, args.m, args.pe, args.mode)
    doc = {
        "strategy": breakdown.strategy,
        "family": family.kind,
        "k": family.k,
        "d": breakdown.d,
        "n": breakdown.n,
        "m": breakdown.m,
        "p_e": breakdown.p_e,
        "mode": args.mode,
        "terms": breakdown.terms,
        "total_bits": breakdown.total_bits,
        "rate": breakdown.rate,
        "notes": list(breakdown.notes),
    }
    print(json.dumps(doc, indent=2))
    return EXIT_OK


def cmd_figure(args) -> int:
    from . import bounds

    table = bounds.figure_preset(args.preset, args.mode)
    _write_bytes(args.out, table.to_csv().encode())
    return EXIT_OK


def cmd_encode(args) -> int:
    family = SourceFamily(args.family, args.k)
    if args.k > 256:
        raise ValueError(f"--k {args.k}: files hold one byte per symbol, so k <= 256")
    x = _symbols_from_file(args.infile, args.k)
    if args.strategy != "ducompm":
        y = ()
        if args.strategy == "ucompm":
            if args.memory is None:
                raise ValueError("--memory is required for strategy ucompm")
            y = _symbols_from_file(args.memory, args.k)
        payload = codec.encode_ucompm(family, context_counts(family, y), x)
        m, p_e = len(y), 0.0
    else:
        if args.memory is not None:
            raise ValueError(
                "ducompm encoding must not see the memory sequence; pass --memory-len instead"
            )
        if args.memory_len is None:
            raise ValueError("--memory-len is required for strategy ducompm")
        if args.pe is None:
            raise ValueError("--pe is required for strategy ducompm")
        if family.kind != MEMORYLESS:
            raise ValueError("ducompm supports only --family memoryless")
        from . import ducompm

        cfg = ducompm.DucompmConfig(
            k=args.k, m=args.memory_len, p_e=args.pe, hash_seed=args.seed
        )
        payload = ducompm.encode_ducompm(x, cfg).payload()
        m, p_e = args.memory_len, args.pe
    container = codec.Container(strategy=args.strategy, family_kind=family.kind, k=args.k,
                                n=x.size, m=m, p_e=p_e, payload=payload)
    _write_bytes(args.out, codec.pack_container(container))
    return EXIT_OK


def cmd_decode(args) -> int:
    container = codec.unpack_container(_read_bytes(args.infile))
    family = SourceFamily(container.family_kind, container.k)
    if container.k > 256:
        raise ValueError(
            f"{args.infile}: alphabet size k={container.k} does not fit one byte per output symbol"
        )
    y = ()
    if container.strategy != "ucomp":
        if args.memory is None:
            raise ValueError(f"--memory is required to decode a {container.strategy} container")
        y = _symbols_from_file(args.memory, container.k)
        if y.size != container.m:
            raise ValueError(f"memory length {y.size} does not match container m={container.m}")
    counts = context_counts(family, y)
    if container.strategy != "ducompm":
        x = codec.decode_ucompm(family, counts, container.payload, container.n)
    else:
        if family.kind != MEMORYLESS:
            raise ValueError(
                f"{args.infile}: ducompm container of family {family.kind}; "
                "ducompm supports only memoryless sources"
            )
        from . import ducompm

        cfg = ducompm.DucompmConfig(
            k=container.k, m=container.m, p_e=container.p_e, hash_seed=args.seed
        )
        outcome = ducompm.decode_ducompm(container.payload, counts, container.n, cfg)
        if not outcome.ok:
            raise _DeclaredFailure(f"declared decode failure: {outcome.failure_reason}")
        x = outcome.sequence
    _write_bytes(args.out, bytes(np.asarray(x, dtype=np.uint8)))
    return EXIT_OK


def _run_harness(args, run: str) -> int:
    """Load the JSON config, run ``harness.<run>`` on it and write the
    results as JSON if the output name ends in .json, else as CSV."""
    from . import harness

    doc = json.loads(_read_bytes(args.config))
    if args.trials is not None and isinstance(doc, dict):
        doc["trials"] = args.trials
    cfg = harness.ExperimentConfig.from_json(doc)
    cfg.validate()
    result = getattr(harness, run)(cfg, workers=_workers(args))
    if args.out.endswith(".json"):
        text = harness.render_json(result, config=cfg)
    else:
        text = harness.render_csv(result)
    _write_bytes(args.out, text.encode())
    return EXIT_OK


def cmd_experiment(args) -> int:
    return _run_harness(args, "run_experiment")


def cmd_coverage(args) -> int:
    return _run_harness(args, "run_coverage")


@functools.cache
def _build_parser() -> _Parser:
    # built once per process: parse_args leaves the parser unchanged and
    # returns a new namespace per call.  No abbreviations at the top level,
    # so "--json" in argv agrees with the parse
    p = _Parser(prog="ucdis", description=__doc__, allow_abbrev=False)
    p.add_argument("--json", action="store_true", help="emit errors as JSON on stderr")
    sub = p.add_subparsers(dest="command", required=True)

    b = sub.add_parser("bounds", help="evaluate a redundancy bound")
    b.add_argument("--family", choices=(MEMORYLESS, MARKOV1), default=MEMORYLESS)
    b.add_argument("--k", type=int, default=256, help="alphabet size")
    b.add_argument("--n", type=int, required=True, help="sequence length (symbols)")
    b.add_argument("--m", type=int, help="memory length (symbols)")
    b.add_argument("--pe", type=float, help="permissible error probability")
    b.add_argument("--mode", choices=["approx", "exact"], default="approx")
    b.add_argument("--strategy", choices=codec.STRATEGIES, required=True)
    b.set_defaults(func=cmd_bounds)

    f = sub.add_parser("figure", help="write a redundancy-rate curve table as CSV")
    f.add_argument("--preset", required=True, help="fig2 or fig3")
    f.add_argument("--out", required=True)
    f.add_argument("--mode", choices=["approx", "exact"], default="approx")
    f.set_defaults(func=cmd_figure)

    e = sub.add_parser("encode", help="encode a symbol file (one byte per symbol)")
    e.add_argument("--strategy", choices=codec.STRATEGIES, required=True)
    e.add_argument("--in", dest="infile", required=True)
    e.add_argument("--out", required=True)
    e.add_argument("--k", type=int, default=256)
    e.add_argument("--family", choices=(MEMORYLESS, MARKOV1), default=MEMORYLESS)
    e.add_argument("--memory", help="memory sequence file (ucompm only)")
    e.add_argument("--memory-len", type=int, help="memory length m (ducompm only)")
    e.add_argument("--pe", type=float, help="permissible error probability (ducompm)")
    e.add_argument("--seed", type=int, default=codec.DEFAULT_HASH_SEED,
                   help="shared hash seed (ducompm)")
    e.set_defaults(func=cmd_encode)

    d = sub.add_parser("decode", help="decode a container file")
    d.add_argument("--in", dest="infile", required=True)
    d.add_argument("--out", required=True)
    d.add_argument("--memory", help="memory sequence file (ucompm and ducompm)")
    d.add_argument("--seed", type=int, default=codec.DEFAULT_HASH_SEED,
                   help="shared hash seed (ducompm)")
    d.set_defaults(func=cmd_decode)

    for name, fn in (("experiment", cmd_experiment), ("coverage", cmd_coverage)):
        c = sub.add_parser(name, help=f"run a Monte Carlo {name} from a JSON config")
        c.add_argument("--config", required=True)
        c.add_argument("--out", required=True)
        c.add_argument("--trials", type=int, help="override the config's trial count")
        c.add_argument("--threads", type=int, help="worker processes (default 1)")
        c.set_defaults(func=fn)

    return p


def main(argv=None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    json_mode = "--json" in argv
    parser = _build_parser()
    # the one exception -> exit code table; ValueError covers FramingError,
    # ValidationError and JSONDecodeError
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except _DeclaredFailure as e:
        code, message = EXIT_DECODE_FAILURE, str(e)
    except (ValueError, codec.ResourceLimitError) as e:
        code, message = EXIT_VALIDATION, str(e)
    except OSError as e:
        code, message = EXIT_IO, str(e)
    if json_mode:
        sys.stderr.write(json.dumps({"error": {"code": code, "message": message}}) + "\n")
    else:
        sys.stderr.write(f"error: {message}\n")
    return code


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
