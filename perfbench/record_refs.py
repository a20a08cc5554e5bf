"""Record the reference outputs of every pool entry into refs.json.

Run from the repository root, on the commit whose outputs are the
reference (outputs must never change afterwards):

    python3 perfbench/record_refs.py

It refuses to overwrite refs.json unless given --force.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import kwsflow  # noqa: E402

import workloads as wl  # noqa: E402


def pipeline_entry(x, config: dict) -> dict:
    entry = {"input": wl.sample_digest(x)}
    for mode in wl.MODES:
        cfg = kwsflow.PipelineConfig(mode=mode, **config)
        res = kwsflow.mfcc_pipeline(kwsflow.SignalBuffer(x, cfg.sample_rate), cfg)
        entry[mode] = wl.pipeline_record(res, mode)
    return entry


def flow_ref(i: int, tmp: Path) -> dict:
    v = wl.flow_variant(i, tmp)
    full = kwsflow.run_flow(v["config"]).to_json()
    ck = tmp / "ck.json"
    kwsflow.run_flow(v["config"], checkpoint_path=ck, stop_after=v["records"] // 2)
    if kwsflow.resume_flow(v["config"], ck).to_json() != full:
        raise SystemExit(f"flow variant {i}: resume differs from the uninterrupted run")
    return {"input": v["input"], "records": v["records"], "digest": wl.text_digest(full)}


def main() -> int:
    if wl.REFS_PATH.exists() and "--force" not in sys.argv:
        print(f"{wl.REFS_PATH.name} exists; pass --force to overwrite", file=sys.stderr)
        return 1
    report = kwsflow.run_dse()
    chosen = report.chosen_point.as_dict()
    if chosen != wl.CHOSEN:
        raise SystemExit(f"run_dse picks {chosen}, workloads.CHOSEN is {wl.CHOSEN}")
    refs: dict = {"dse_bundled": json.loads(report.to_json())}
    refs["stream_long"] = {
        name: [pipeline_entry(wl.stream_entry(name, i), cfg)
               for i in range(wl.POOL["stream_long"])]
        for name, cfg in wl.CONFIGS.items()}
    refs["clips_short"] = [pipeline_entry(wl.clip_entry(i), wl.CHOSEN)
                           for i in range(wl.POOL["clips_short"])]
    with tempfile.TemporaryDirectory(prefix=".perfbench_", dir=ROOT) as tmp:
        refs["flow_checkpointed"] = [flow_ref(i, Path(tmp))
                                     for i in range(wl.POOL["flow_checkpointed"])]
    wl.REFS_PATH.write_text(json.dumps(refs, sort_keys=True, separators=(",", ":")) + "\n")
    print(f"wrote {wl.REFS_PATH.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
