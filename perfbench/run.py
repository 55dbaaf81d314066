#!/usr/bin/env python3
"""Owner-side benchmark for emmark: release provisioning, cold forensics and
warm emmarkd serving.

    python3 perfbench/run.py --workload provision|forensic-cold|serve-warm|all \
        --seed N --seconds T --trace 0|1

Builds the `emmark` CLI and the `perfbench` harness from source (into
$CARGO_TARGET_DIR, default `.bench_build`), generates every input from the
seed, runs the workload for T seconds and prints one JSON result as the last
stdout line. `--trace 0` reports the end-to-end metrics, `--trace 1` the
per-layer ones. See perfbench/NOTES.md for what each workload and metric is.
"""

import argparse
import hashlib
import json
import os
import random
import re
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("provision", "forensic-cold", "serve-warm")
# Input generation is repeated and its median reported as setup_s.
SETUP_REPS = 3
# What one `provision` op asks for (the harness's setup builds the expected
# output for exactly this).
PROVISION_ARGS = ["--devices", "16", "--shards", "2"]

END_TO_END = {
    "p50_ms": "ms",
    "p90_ms": "ms",
    "ops_per_s": "1/s",
    "sustained_rps": "1/s",
    "ok_ratio": "ratio",
    "peak_rss_mib": "MiB",
    "setup_s": "s",
}

# Printed with the end-to-end metrics but not part of the result: p99 does
# not repeat across runs within any bound the ledger allows (see NOTES.md),
# and failed_ratio is the result's own failed/attempted.
REPORTED = {"p99_ms": "ms", "failed_ratio": "ratio", "samples": "count"}

# Per-layer metrics: span self times (ms per op), byte and cell counts per
# op, and ratios. Layers a workload does not exercise report 0.
PER_LAYER = {
    "io.read_ms": "ms",
    "io.read_bytes": "bytes",
    "io.write_ms": "ms",
    "io.write_bytes": "bytes",
    "vault.decode_ms": "ms",
    "watermark.locate_ms": "ms",
    "scoring.layer_pool_ms": "ms",
    "scoring.cells_scanned": "count",
    "watermark.extract_ms": "ms",
    "deploy.sparse_open_ms": "ms",
    "deploy.useful_read_ratio": "ratio",
    "registry.load_ms": "ms",
    "registry.decoded_bytes": "bytes",
    "fleet.build_ms": "ms",
    "registry.probe_ms": "ms",
    "registry.candidate_ratio": "ratio",
    "provision.family_build_ms": "ms",
    "provision.batch_ms": "ms",
    "provision.artifact_ms": "ms",
    "registry.shard_ms": "ms",
    "registry.flat_encode_ms": "ms",
    "registry.manifest_encode_ms": "ms",
    "mem.free_ms": "ms",
    "cli.residual_ms": "ms",
    "cli.residual_share": "ratio",
    "service.verify_ms": "ms",
    "service.identify_ms": "ms",
    "service.provision_ms": "ms",
    "service.wait_ms": "ms",
    "service.worker_busy_ratio": "ratio",
    "service.cache_hit_ratio": "ratio",
    "service.busy_ratio": "ratio",
    "service.blob_bytes_per_req": "bytes",
    "service.codec_us": "us",
    "harness.late_p99_ms": "ms",
    "trace.overhead_ratio": "ratio",
}

# Span names whose self time per op is reported as `<name>_ms`.
STAGE_SPANS = [m[: -len("_ms")] for m in PER_LAYER if m.endswith("_ms")]


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def percentile(values, p):
    """Linear-interpolated percentile, as the harness computes it."""
    v = sorted(values)
    if not v:
        return 0.0
    rank = p / 100 * (len(v) - 1)
    lo, hi = int(rank), min(int(rank) + 1, len(v) - 1)
    return v[lo] + (v[hi] - v[lo]) * (rank - lo)


# ---------------------------------------------------------------------------
# Build and inputs
# ---------------------------------------------------------------------------


def build():
    """Builds the CLI and the harness; returns both executables."""
    env = dict(os.environ)
    target = Path(env.setdefault("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
        env["CARGO_TARGET_DIR"] = str(target)
    for cmd in (
        ["cargo", "build", "--release", "--offline", "--bin", "emmark"],
        ["cargo", "build", "--release", "--offline",
         "--manifest-path", str(BENCH / "Cargo.toml")],
    ):
        # Cargo's output goes to stderr: stdout ends with the result line.
        subprocess.run(cmd, cwd=ROOT, env=env, check=True, stdout=sys.stderr)
    return target / "release" / "emmark", target / "release" / "perfbench"


def digest(paths, base):
    h = hashlib.sha256()
    size = 0
    for p in paths:
        data = p.read_bytes()
        h.update(str(p.relative_to(base)).encode() + b"\0")
        h.update(data)
        size += len(data)
    return {"files": len(paths), "bytes": size, "sha256": h.hexdigest()[:32]}


def describe_inputs(d):
    """Sizes and content hashes of every generated input, by group."""
    files = sorted(p for p in d.rglob("*") if p.is_file())
    groups = {
        "vault": [p for p in files if p.name == "secrets.emws"],
        "fleet": [p for p in files if p.parent.name == "fleet"],
        "suspects": [p for p in files if p.parent.name == "suspects"
                     or p.name == "suspects.tsv"],
        "expected": [p for p in files if "expected" in p.parts
                     or p.name == "serve_ids.tsv"],
    }
    out = {name: digest(paths, d) for name, paths in groups.items()}
    out["all"] = digest(files, d)
    return out


def setup(perfbench, seed, inputs):
    """Generates the inputs SETUP_REPS times; returns the median time, a
    description of the inputs, and whether every repetition produced the
    same bytes."""
    times, described = [], []
    for _ in range(SETUP_REPS):
        shutil.rmtree(inputs, ignore_errors=True)
        t0 = time.perf_counter()
        proc = subprocess.run(
            [str(perfbench), "setup", "--seed", str(seed), "--dir", str(inputs)],
            check=True, stdout=subprocess.PIPE, text=True)
        times.append(time.perf_counter() - t0)
        shape = json.loads(proc.stdout.strip().splitlines()[-1])
        described.append(describe_inputs(inputs))
    info = dict(shape, **described[-1])
    return statistics.median(times), info, all(d == described[0] for d in described)


# ---------------------------------------------------------------------------
# One-shot commands
# ---------------------------------------------------------------------------


def spawn(argv, out_path):
    """Runs one process with stdout+stderr to `out_path`; returns
    (wall ms, exit code, peak RSS MiB, output text)."""
    argv = [str(a) for a in argv]
    fd = os.open(out_path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
    try:
        t0 = time.perf_counter()
        pid = os.posix_spawn(argv[0], argv, os.environ, file_actions=[
            (os.POSIX_SPAWN_DUP2, fd, 1), (os.POSIX_SPAWN_DUP2, fd, 2)])
        _, status, usage = os.wait4(pid, 0)
        ms = (time.perf_counter() - t0) * 1e3
    finally:
        os.close(fd)
    text = Path(out_path).read_text(errors="replace")
    return ms, os.waitstatus_to_exitcode(status), usage.ru_maxrss / 1024, text


class OneShot:
    """The `provision` and `forensic-cold` closed loops: one client, each op
    one or two cold `emmark` processes."""

    def __init__(self, workload, emmark, perfbench, inputs, work, seed):
        self.workload = workload
        self.emmark, self.perfbench = emmark, perfbench
        self.inputs, self.work = inputs, work
        self.rng = random.Random(seed)
        self.vault = inputs / "secrets.emws"
        self.manifest = inputs / "fleet" / "fleet.emfm"
        self.out = work / "cli.out"
        self.n = 0
        self.peak_rss = 0.0
        expected = inputs / "expected" / "provision"
        self.expected = {p.name: p.read_bytes() for p in expected.iterdir()}
        self.suspects = []
        for line in (inputs / "suspects.tsv").read_text().splitlines():
            name, device = line.split("\t")
            self.suspects.append((inputs / "suspects" / name,
                                  None if device == "-" else device))

    def run(self, argv):
        ms, code, rss, text = spawn(argv, self.out)
        self.peak_rss = max(self.peak_rss, rss)
        return ms, code, text

    def op(self):
        """One untraced op; returns (latency ms, correct, its replay)."""
        self.n += 1
        if self.workload == "provision":
            out = self.work / f"provision-{self.n}"
            ms, code, _ = self.run([self.emmark, "fleet-provision", "--secrets", self.vault,
                                    "--out-dir", out, *PROVISION_ARGS])
            ok = code == 0 and self.provision_matches(out)
            shutil.rmtree(out, ignore_errors=True)
            return ms, ok, self.replay_provision
        suspect, device = self.rng.choice(self.suspects)
        ms_v, code_v, text_v = self.run([self.emmark, "verify", "--secrets", self.vault,
                                         "--suspect", suspect])
        ms_i, code_i, text_i = self.run([self.emmark, "identify-leak", "--secrets", self.vault,
                                         "--manifest", self.manifest, "--suspect", suspect])
        ok = verify_ok(code_v, text_v) and identify_ok(code_i, text_i, device)
        return ms_v + ms_i, ok, lambda: self.replay_forensic(suspect, device)

    def replay(self, argv):
        """Runs one traced replay; returns its record, with the process's
        wall time, or None if it failed."""
        ms, code, text = self.run(argv)
        if code != 0:
            return None
        rec = json.loads(text.strip().splitlines()[-1])
        rec["wall_ms"] = ms
        return rec

    def replay_provision(self):
        out = self.work / f"replay-{self.n}"
        rec = self.replay([self.perfbench, "replay-provision", "--vault", self.vault,
                           "--out-dir", out, *PROVISION_ARGS])
        shutil.rmtree(out, ignore_errors=True)
        return rec

    def replay_forensic(self, suspect, device):
        """The replay must reach the command's verdicts."""
        rec = self.replay([self.perfbench, "replay-forensic", "--vault", self.vault,
                           "--manifest", self.manifest, "--suspect", suspect])
        res = rec["result"] if rec else None
        if res and res["matched_bits"] == res["total_bits"] > 0 \
                and res["traced"] == (device or "-"):
            return rec
        return None

    def provision_matches(self, out):
        """The CLI wrote exactly the files an in-process FleetProvisioner
        builds for the same ids, byte for byte."""
        names = sorted(p.name for p in out.iterdir())
        if names != sorted(self.expected):
            return False
        return all((out / n).read_bytes() == self.expected[n] for n in names)


def verify_ok(code, text):
    m = re.search(r"matched (\d+) / (\d+) bits", text)
    return (code == 0 and "verdict: OWNERSHIP PROVED" in text and m is not None
            and int(m.group(1)) == int(m.group(2)) > 0)


def identify_ok(code, text, device):
    if device is None:
        return code == 1 and "no registered device clears" in text
    m = re.search(r"traced to (\S+): (\d+) / (\d+) fingerprint bits", text)
    return (code == 0 and m is not None and m.group(1) == device
            and int(m.group(2)) == int(m.group(3)) > 0)


def closed_loop(bench, seconds, traced):
    """Ops back to back for `seconds` after one warm-up op. Traced, each op
    is followed by its in-process replay."""
    lat, replays, failed, attempted = [], [], 0, 0
    _, ok, _ = bench.op()
    failed += not ok
    attempted += 1
    end = time.perf_counter() + seconds
    while time.perf_counter() < end or not lat:
        ms, ok, replay = bench.op()
        attempted += 1
        failed += not ok
        lat.append(ms)
        if traced:
            rec = replay()
            if rec is None:
                failed += 1
            else:
                replays.append(rec)
    return lat, replays, attempted, failed


# ---------------------------------------------------------------------------
# Per-layer attribution
# ---------------------------------------------------------------------------


def self_times(spans):
    """Self time (ms) and bytes per span name, and the wall time covered by
    top-level spans, for one op."""
    child = [0] * len(spans)
    for s in spans:
        if s["parent"] is not None:
            child[s["parent"]] += s["end_ns"] - s["start_ns"]
    selfs, nbytes, top = {}, {}, 0.0
    for i, s in enumerate(spans):
        dur = s["end_ns"] - s["start_ns"]
        selfs[s["name"]] = selfs.get(s["name"], 0.0) + (dur - child[i]) / 1e6
        nbytes[s["name"]] = nbytes.get(s["name"], 0) + s["bytes"]
        if s["parent"] is None:
            top += dur / 1e6
    return selfs, nbytes, top


def stage_layers(op_spans):
    """Per-layer means per op over replayed ops' spans."""
    n = max(len(op_spans), 1)
    selfs, nbytes, tops = {}, {}, []
    for spans in op_spans:
        s, b, top = self_times(spans)
        tops.append(top)
        for k, v in s.items():
            selfs[k] = selfs.get(k, 0.0) + v
        for k, v in b.items():
            nbytes[k] = nbytes.get(k, 0) + v
    layers = {f"{name}_ms": selfs.get(name, 0.0) / n for name in STAGE_SPANS}
    layers["io.read_bytes"] = nbytes.get("io.read", 0) / n
    layers["io.write_bytes"] = nbytes.get("io.write", 0) / n
    layers["registry.decoded_bytes"] = nbytes.get("registry.load", 0) / n
    return layers, tops


def count_layers(counts, n, suspect_bytes):
    """Layers read from the program's own counters (deltas over all ops)."""
    def c(name):
        return sum(x[name] for x in counts)
    return {
        "scoring.layer_pool_ms": c("emmark_scoring_layer_pool_ns") / 1e6 / n,
        "scoring.cells_scanned": c("emmark_scoring_cells_scanned_total") / n,
        "registry.candidate_ratio": (c("emmark_identify_candidates_total")
                                     / max(c("emmark_identify_fleet_devices_total"), 1)),
        "deploy.useful_read_ratio": (c("emmark_sparse_bytes_read_total") / suspect_bytes
                                     if suspect_bytes else 0.0),
    }


def write_trace(workload, seed, op_spans):
    """All spans of the run, one JSON line each; spans of one op share `op`."""
    out = ROOT / ".bench_out"
    out.mkdir(exist_ok=True)
    path = out / f"trace-{workload}-seed{seed}.jsonl"
    with open(path, "w") as f:
        for op, spans in enumerate(op_spans):
            for i, s in enumerate(spans):
                f.write(json.dumps(dict(s, op=op, id=i)) + "\n")
    return path


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


def run_workload(workload, emmark, perfbench, seed, seconds, traced):
    """Returns (metrics, attempted, failed, correct)."""
    work = ROOT / ".bench_work" / f"{workload}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        inputs = work / "inputs"
        setup_s, info, deterministic = setup(perfbench, seed, inputs)
        print("inputs " + json.dumps(dict(info, workload=workload)), flush=True)
        if workload == "serve-warm":
            res = serve(emmark, perfbench, inputs, work, seed, seconds, traced, setup_s)
        else:
            res = one_shot(workload, emmark, perfbench, inputs, work, seed, seconds, traced,
                           setup_s)
        metrics, attempted, failed, correct = res
        metrics["failed_ratio"] = failed / attempted
        if traced:
            metrics = {name: metrics.get(name, 0.0) for name in PER_LAYER}
        return metrics, attempted, failed, correct and deterministic
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another run still works there


def one_shot(workload, emmark, perfbench, inputs, work, seed, seconds, traced, setup_s):
    bench = OneShot(workload, emmark, perfbench, inputs, work, seed)
    lat, replays, attempted, failed = closed_loop(bench, seconds, traced)
    p50 = percentile(lat, 50)
    if not traced:
        ops = len(lat) / (sum(lat) / 1e3)
        return {
            "p50_ms": p50,
            "p90_ms": percentile(lat, 90),
            "p99_ms": percentile(lat, 99),
            "samples": len(lat),
            "ops_per_s": ops,
            # One closed-loop client sustains exactly its completion rate.
            "sustained_rps": ops,
            "ok_ratio": 1 - failed / attempted,
            "peak_rss_mib": bench.peak_rss,
            "setup_s": setup_s,
        }, attempted, failed, failed == 0
    op_spans = [r["spans"] for r in replays]
    layers, tops = stage_layers(op_spans)
    suspect_bytes = sum(r["result"].get("suspect_bytes", 0) for r in replays)
    layers.update(count_layers([r["counts"] for r in replays], max(len(replays), 1),
                               suspect_bytes))
    residual = p50 - percentile(tops, 50)
    layers["cli.residual_ms"] = residual
    layers["cli.residual_share"] = residual / p50
    layers["trace.overhead_ratio"] = percentile([r["wall_ms"] for r in replays], 50) / p50
    path = write_trace(workload, seed, op_spans)
    log(f"{workload}: {len(replays)} traced ops, spans in {path}")
    return layers, attempted, failed, failed == 0


def serve(emmark, perfbench, inputs, work, seed, seconds, traced, setup_s):
    proc = subprocess.run(
        [str(perfbench), "serve", "--emmark", str(emmark), "--inputs", str(inputs),
         "--work", str(work / "daemon"), "--seed", str(seed), "--seconds", str(seconds),
         "--trace", "1" if traced else "0", "--setup-reps", str(SETUP_REPS)],
        stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"perfbench serve failed with exit code {proc.returncode}")
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    setup_s += statistics.median(res["daemon_start_s"])
    attempted, failed = res["attempted"], res["failed"]
    if not traced:
        log(f"serve-warm ladder: {res['ladder']}; sender late p99 {res['late_p99_ms']:.3f} ms")
        metrics = dict(res["metrics"], setup_s=setup_s, samples=attempted)
        return metrics, attempted, failed, res["correct"]
    op_spans = res["spans"]
    replay = res["replay"]
    layers, _ = stage_layers(op_spans)
    layers.update(count_layers([replay["counts"]], replay["ops"], replay["suspect_bytes"]))
    layers.update(res["layers"])
    layers["cli.residual_ms"] = 0.0
    layers["cli.residual_share"] = 0.0
    path = write_trace("serve-warm", seed, op_spans)
    log(f"serve-warm: {replay['ops']} replayed ops, spans in {path}")
    return layers, attempted, failed, failed == 0


# ---------------------------------------------------------------------------
# Report
# ---------------------------------------------------------------------------


def report(workload, metrics, units, traced):
    print(f"== {workload} ({'traced: per-layer' if traced else 'untraced: end-to-end'})")
    shown = units if traced else dict(units, **REPORTED)
    for name, unit in shown.items():
        print(f"  {name:<28} {metrics[name]:>14.4f} {unit}")
    if traced and workload != "serve-warm":
        print(f"  residual share of p50_ms: {100 * metrics['cli.residual_share']:.1f}%")
    if traced:
        print(f"  trace.overhead_ratio: {metrics['trace.overhead_ratio']:.3f}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    for needed in ("Cargo.toml", "crates/core/Cargo.toml", "src/bin/emmark.rs"):
        if not (ROOT / needed).is_file():
            log(f"perfbench: {ROOT / needed} is missing; run from a checkout of the repository")
            return 2
    emmark, perfbench = build()
    traced = bool(args.trace)
    units = PER_LAYER if traced else END_TO_END
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    metrics, attempted, failed, correct = {}, 0, 0, True
    for w in workloads:
        m, a, f, c = run_workload(w, emmark, perfbench, args.seed, args.seconds, traced)
        report(w, m, units, traced)
        attempted, failed, correct = attempted + a, failed + f, correct and c
        prefix = "" if len(workloads) == 1 else f"{w}."
        metrics.update({prefix + k: {"value": m[k], "unit": u} for k, u in units.items()})
    print(json.dumps({"correct": correct and failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
