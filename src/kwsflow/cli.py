"""Command-line entry point.

Exit codes: 0 success; 1 a criterion was unmet or a flow stage failed;
2 bad input or configuration.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from .dse import THRESHOLD_RULES, DseStageError, run_dse
from .errors import InvalidParams, KwsflowError, check_fields
from .flow import resume_flow, run_flow
from .frontend import PIPELINE_RULES, PipelineConfig, mfcc_pipeline, spectrogram_distance
from .signal import gen_signal, read_wav, write_wav

EXIT_OK = 0
EXIT_UNMET = 1
EXIT_BAD_INPUT = 2


def _load_pipeline_config(path: str | None, mode: str) -> PipelineConfig:
    overrides = json.loads(Path(path).read_text()) if path else {}
    check_fields(overrides, PIPELINE_RULES, "pipeline config")  # the file as a whole, mode too
    return PipelineConfig(**{**overrides, "mode": mode})


def _cmd_gen(args) -> int:
    params = json.loads(args.params) if args.params else {}
    if not (isinstance(params, dict) and math.isfinite(args.dur)):
        raise InvalidParams(f"need a JSON object --params and a finite --dur, got {args.params}, {args.dur}")
    if args.freq is not None:
        params.setdefault("freq", args.freq)
    if args.amp is not None:
        params.setdefault("amp", args.amp)
    n = int(round(args.dur * args.sr))
    buf = gen_signal(args.kind, params, seed=args.seed, sample_rate=args.sr, n=n)
    write_wav(args.out, buf)
    return EXIT_OK


def _frames_json(result, cfg: PipelineConfig) -> str:
    return json.dumps({
        "config": asdict(cfg),
        "frames": [[float(v) for v in row] for row in result.mfcc],
    }, indent=2, sort_keys=True) + "\n"


def _emit(text: str, out: str | None) -> None:
    """Write text to the --out path, or to stdout without one."""
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _cmd_mfcc(args) -> int:
    cfg = _load_pipeline_config(args.config, args.mode)
    buf = read_wav(args.infile)
    result = mfcc_pipeline(buf, cfg)
    out = Path(args.out)
    if out.suffix.lower() == ".json":
        out.write_text(_frames_json(result, cfg))
    else:
        rows = [",".join(f"c{i}" for i in range(cfg.n_mfcc))]
        rows += [",".join(repr(float(v)) for v in row) for row in result.mfcc]
        out.write_text("\n".join(rows) + "\n")
    return EXIT_OK


def _cmd_compare(args) -> int:
    buf = read_wav(args.infile)
    cfg_fx = _load_pipeline_config(args.config, "fixed")
    cfg_fl = _load_pipeline_config(args.config, "float")
    rx = mfcc_pipeline(buf, cfg_fx)
    rf = mfcc_pipeline(buf, cfg_fl)
    stats = {"n_frames": int(rx.mfcc.shape[0])}
    for stage, name in (("post_fft", "power"), ("post_mel", "log_mel"), ("post_dct", "mfcc")):
        a, b = getattr(rx, name), getattr(rf, name)
        stats[stage] = {"distance": spectrogram_distance(a, b),
                        "max_abs_error": float(np.max(np.abs(a - b)))}
    _emit(json.dumps(stats, indent=2, sort_keys=True) + "\n", args.out)
    return EXIT_OK


def _cmd_dse(args) -> int:
    dse_cfg = json.loads(Path(args.config).read_text()) if args.config else {}
    check_fields(dse_cfg, THRESHOLD_RULES, "DSE thresholds")  # a file holding null is no object
    try:
        report = run_dse(args.corpus, dse_cfg)
    except DseStageError as exc:
        _emit(exc.report.to_json(), args.out)
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_UNMET
    _emit(report.to_json(), args.out)
    return EXIT_OK


def _cmd_flow(args) -> int:
    config = json.loads(Path(args.config).read_text())
    if args.flow_cmd == "resume":
        result = resume_flow(config, args.checkpoint)
    else:
        result = run_flow(config, checkpoint_path=args.checkpoint)
    _emit(result.to_json(), args.out)
    return EXIT_OK if result.overall in ("success", "partial") else EXIT_UNMET


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kwsflow",
        description="MFCC front-end design flow: signals, pipeline, "
                    "design-space exploration, and the staged tool loop.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a test signal WAV")
    p.add_argument("--kind", required=True,
                   choices=["sine", "multitone", "noise", "speechlike"])
    p.add_argument("--freq", type=float)
    p.add_argument("--amp", type=float)
    p.add_argument("--sr", type=int, default=8000)
    p.add_argument("--dur", type=float, default=1.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--params", help="extra generator params as JSON")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("mfcc", help="compute MFCC frames from a WAV")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--config", help="pipeline config JSON")
    p.add_argument("--mode", choices=["fixed", "float"], default="fixed")
    p.add_argument("--out", required=True, help=".csv or .json")
    p.set_defaults(func=_cmd_mfcc)

    p = sub.add_parser("compare", help="fixed vs float error report")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--config", help="pipeline config JSON")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_compare)

    p = sub.add_parser("dse", help="run the design-space exploration")
    p.add_argument("--corpus", help="directory of WAV files (default: bundled)")
    p.add_argument("--config", help="criterion threshold overrides, JSON")
    p.add_argument("--out", help="report path (default: stdout)")
    p.set_defaults(func=_cmd_dse)

    p = sub.add_parser("flow", help="run or resume the staged flow")
    fsub = p.add_subparsers(dest="flow_cmd", required=True)
    for name in ("run", "resume"):
        fp = fsub.add_parser(name)
        fp.add_argument("--config", required=True)
        fp.add_argument("--checkpoint", required=(name == "resume"))
        fp.add_argument("--out")
        fp.set_defaults(func=_cmd_flow)
    return parser


def dispatch(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_BAD_INPUT if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except (KwsflowError, OSError, json.JSONDecodeError, ValueError, TypeError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT


def main() -> None:
    sys.exit(dispatch())


if __name__ == "__main__":
    main()
