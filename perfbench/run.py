"""treeshift benchmark: drive the CLI in-process on generated model files.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload dimension --seed 1 --seconds 30 --trace 0

One workload runs per process, single-threaded.  The run writes the model
files for ``--seed``, imports ``treeshift.cli`` from ``src/``, and then runs
passes of the workload's commands until ``--seconds`` is used up.  Every
output is checked against its reference.  With ``--trace 0`` the last line
of stdout holds the end-to-end metrics (medians over the passes); with
``--trace 1`` one untraced pass is followed by at least two traced passes,
and the last line holds the per-layer metrics.  The line before it holds
the full record (environment, input hashes, per-command medians and sample
counts), which is also written to ``.perfbench_out/``.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import checks
import inputs
import spans
import speed

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"
SETUP_PROBES = 7
SETUP_SPEED_EXPONENT = 0.6  # as Command.speed_exponent, for the set-up probes
PROBE_INTERVAL_S = 0.02  # a set-up probe lasts under a second, so it samples the speed often
MIN_TRACED_PASSES = 2


@dataclass(frozen=True)
class Command:
    name: str       # per-command metric stem, e.g. "dimension_nine"
    argv: tuple     # CLI arguments; "{dir}" and "{seed}" are filled in per run
    check: str      # function name in checks.py
    # measured: how the command's raw time follows the burst speed (NOTES.md);
    # its time in reference seconds is raw seconds * speed factor ** speed_exponent
    speed_exponent: float
    repeat_s: float = 0.0  # untraced: repeat a short command for this long, keep the median


WORKLOADS = {
    "dimension": (
        Command("dimension_nine", ("dimension", "{dir}/nine.json"), "check_nine", 0.8),
        # commands sharing a name add up to one time
        *(Command("dimension_wide64", ("dimension", f"{{dir}}/wide64_{i}.json"), "check_wide64",
                  0.8) for i in range(inputs.WIDE_MODELS)),
    ),
    "rate": (
        Command("rate", ("rate", "{dir}/ex1.json", "--csv", "{dir}/ex1_rate.csv"), "check_rate",
                1.1),
        Command("lln", ("lln", "{dir}/ex1.json"), "check_lln", 0.9, repeat_s=0.3),
    ),
    "montecarlo-oracle": (
        Command("simulate", ("simulate", "{dir}/nine_chain.json", "--depth", "12",
                             "--trials", "20", "--seed", "{seed}"), "check_simulate", 0.6),
        Command("oracle", ("oracle", "{dir}/ex1.json", "--n", "5"), "check_oracle", 0.9),
        Command("measure", ("measure", "{dir}/extreme.json"), "check_measure", 0.5,
                repeat_s=0.3),
    ),
}

# end-to-end roles: the workload's heaviest command and the next one
PRIMARY = {"dimension": "dimension_nine", "rate": "rate", "montecarlo-oracle": "oracle"}
SECONDARY = {"dimension": "dimension_wide64", "rate": "lln", "montecarlo-oracle": "simulate"}


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help="only write the inputs and import the CLI, then exit")
    return ap.parse_args(argv)


def setup(workdir: Path, seed: int):
    """Write the seeded inputs and import the CLI from this checkout's sources."""
    src = ROOT / "src"
    if not (src / "treeshift" / "cli.py").is_file():
        sys.exit(f"perfbench: no treeshift sources under {src}")
    sys.path.insert(0, str(src))
    digests = inputs.write_inputs(workdir, seed)
    from treeshift import cli

    return cli, digests


def measure_setup(args, probes: int) -> tuple[list[float], list[float], list[float]]:
    """Times of fresh processes that only run ``setup``, interpreter start included.

    Returns (reference seconds, raw seconds, speed factors).  Each probe
    times calibration bursts on its own thread while it imports (speed.py)
    and reports their total time, which is taken off, and their speed factor.
    """
    ref, raw, factors = [], [], []
    for _ in range(probes):
        t0 = time.perf_counter()
        probe = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
             "--seed", str(args.seed), "--seconds", "0", "--setup-probe"],
            check=True, cwd=ROOT, stdout=subprocess.PIPE, text=True,
        )
        seconds = time.perf_counter() - t0
        report = json.loads(probe.stdout)
        seconds -= report["burst_s"]
        ref.append(seconds * report["speed"] ** SETUP_SPEED_EXPONENT)
        raw.append(seconds)
        factors.append(report["speed"])
    return ref, raw, factors


def setup_probe(workdir: Path, seed: int):
    """Set up under the calibration handler, report its bursts, and exit at once."""
    with speed.SpeedSampler(PROBE_INTERVAL_S) as sampler:
        setup(workdir, seed)
    if not sampler.bursts:
        sampler.bursts.append((time.perf_counter(), speed.burst()))
    burst_s = [s for _, s in sampler.bursts]
    print(json.dumps({"burst_s": sum(burst_s),
                      "speed": speed.REF_S / statistics.fmean(burst_s)}), flush=True)
    os._exit(0)  # skip interpreter teardown: set-up ends here


def invoke(cli, argv: list[str]):
    """Run one CLI command in-process; returns (start, end, exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            cli.main.main(args=argv, prog_name="treeshift", standalone_mode=False)
        code = 0
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    except Exception as exc:  # a crash is a failed operation, not a benchmark error
        code = -1
        err.write(f"{type(exc).__name__}: {exc}")
    return t0, time.perf_counter(), code, out.getvalue(), err.getvalue()


def run_pass(cli, commands, workdir, seed, sampler, recorder=None):
    """One pass over the workload's commands; outputs are checked after the last one.

    Command times are in reference seconds (speed.py).  Untraced, a command
    with ``repeat_s`` runs again until that much time is used, its time
    being the median invocation.  ``wall_s`` is the sum of the command times.
    """
    fill = {"dir": str(workdir), "seed": str(seed)}
    runs = []
    with contextlib.ExitStack() as stack:
        if recorder is not None:
            stack.enter_context(spans.installed(recorder))
        for cmd in commands:
            argv = [a.format(**fill) for a in cmd.argv]
            invocations = []
            while True:
                with recorder.span(f"cli.{argv[0]}") if recorder else contextlib.nullcontext():
                    invocations.append(invoke(cli, argv))
                spent = sum(t1 - t0 for t0, t1, *_ in invocations)
                if recorder is not None or spent >= cmd.repeat_s:
                    break
            runs.append((cmd, invocations))
    # read before the checks, whose parsing of the outputs would raise it
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    ctx = {"workdir": workdir, "seed": seed}
    record = {"times": {}, "raw_s": {}, "speed": {}, "invocations": {}, "ops": 0,
              "failed": 0, "failures": {}, "output_bytes": {}, "recorder": recorder,
              "peak_rss_mb": peak_rss_mb}
    for cmd, invocations in runs:
        timed = [sampler.window(t0, t1) for t0, t1, *_ in invocations]
        raw_s = statistics.median(raw for raw, _ in timed)
        time_s = statistics.median(raw * factor ** cmd.speed_exponent for raw, factor in timed)
        record["raw_s"][cmd.name] = record["raw_s"].get(cmd.name, 0.0) + raw_s
        record["times"][cmd.name] = record["times"].get(cmd.name, 0.0) + time_s
        record["speed"].setdefault(cmd.name, []).extend(factor for _, factor in timed)
        record["invocations"][cmd.name] = record["invocations"].get(cmd.name, 0) + len(invocations)
        verb = cmd.argv[0]
        record["output_bytes"][verb] = (
            record["output_bytes"].get(verb, 0) + len(invocations[0][3].encode())
        )
        for _, _, code, stdout, stderr in invocations:
            if code != 0:
                problems = [f"exit {code}: {stderr.strip()[-300:]}"]
            else:
                try:
                    problems = getattr(checks, cmd.check)(json.loads(stdout), ctx)
                except (ValueError, KeyError, TypeError, OSError) as exc:
                    problems = [f"unreadable output: {type(exc).__name__}: {exc}"]
            record["ops"] += 1
            record["failed"] += bool(problems)
            if problems:
                record["failures"].setdefault(cmd.name, []).extend(problems)
    record["wall_s"] = sum(record["times"].values())
    return record


def measure_passes(cli, commands, workdir, seed, budget_s, min_passes, sampler,
                   traced=False):
    """Run passes until starting another one would overrun ``budget_s``."""
    passes = []
    t0 = time.perf_counter()
    while True:
        recorder = spans.SpanRecorder() if traced else None
        passes.append(run_pass(cli, commands, workdir, seed, sampler, recorder))
        elapsed = time.perf_counter() - t0
        typical = elapsed / len(passes)
        if len(passes) >= min_passes and elapsed + typical > budget_s:
            return passes


def environment() -> dict:
    from importlib.metadata import version

    cpu = platform.processor() or platform.machine()
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    return {
        "cpu_model": cpu,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "click": version("click"),
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
    }


def git_commit() -> str | None:
    """HEAD of the checkout when it is a git work tree, read without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    target = ROOT / ".git" / ref[5:]
    if target.is_file():
        return target.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def source_digest() -> str:
    import hashlib

    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "treeshift").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(args, passes, setup_times) -> tuple[dict, dict]:
    """Contract metrics plus the per-command medians under their own names."""
    per_command = {
        name: statistics.median(p["times"][name] for p in passes)
        for name in passes[0]["times"]
    }
    wall = statistics.median(p["wall_s"] for p in passes)
    metrics = {
        "setup_s": metric(statistics.median(setup_times), "s"),
        "wall_s": metric(wall, "s"),
        "primary_cmd_s": metric(per_command[PRIMARY[args.workload]], "s"),
        "secondary_cmd_s": metric(per_command[SECONDARY[args.workload]], "s"),
        "peak_rss_mb": metric(passes[0]["peak_rss_mb"], "MB"),
    }
    detail = {f"{name}_s": metric(v, "s") for name, v in per_command.items()}
    for name in per_command:
        detail[f"{name}_raw_s"] = metric(statistics.median(p["raw_s"][name] for p in passes), "s")
    return metrics, detail


def per_layer(passes, untraced_wall, previous: dict | None):
    """Per-layer medians over the traced passes, plus the exact-count self-check.

    ``trace.overhead_ratio`` is the median traced pass time over the
    untraced pass time, both in reference seconds.

    The exact counts must agree between the traced passes of this run and
    with an earlier traced run of the same seed on the same sources.
    """
    layer = [spans.layer_metrics(p["recorder"], p["output_bytes"]) for p in passes]
    problems = []
    counts = [spans.exact_counts(m) for m in layer]
    if any(c != counts[0] for c in counts[1:]):
        problems.append(f"exact counts differ between traced passes: {counts}")
    if previous and previous.get("exact_counts") not in (None, counts[0]):
        problems.append(
            f"exact counts differ from the earlier run: {previous['exact_counts']} vs {counts[0]}"
        )
    merged = spans.median_metrics(layer)
    merged["trace.overhead_ratio"] = statistics.median(p["wall_s"] for p in passes) / untraced_wall
    out = {name: metric(value, spans.unit_of(name)) for name, value in merged.items()}
    return out, problems, counts[0]


def earlier_record(path: Path, env: dict) -> dict | None:
    """The record an earlier run of the same tag left, if it ran the same sources."""
    try:
        record = json.loads(path.read_text())
    except (OSError, ValueError):
        return None
    same = record.get("environment", {}).get("source_sha256") == env["source_sha256"]
    return record if same else None


def main(argv=None) -> int:
    args = parse_args(argv)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.setup_probe:
        setup_probe(OUT_DIR / ("probe-" + tag), args.seed)
    workdir = OUT_DIR / tag
    cli, digests = setup(workdir, args.seed)
    setup_times, setup_raw, setup_speed = measure_setup(args, SETUP_PROBES)
    commands = WORKLOADS[args.workload]

    problems = []
    exact = None
    env = environment()
    record_path = OUT_DIR / f"{tag}.json"
    if args.trace == 0:
        with speed.SpeedSampler() as sampler:
            passes = measure_passes(cli, commands, workdir, args.seed, args.seconds, 1, sampler)
        metrics, detail = end_to_end(args, passes, setup_times)
        untraced_wall = None
    else:
        t0 = time.perf_counter()
        with speed.SpeedSampler() as sampler:
            untraced = run_pass(cli, commands, workdir, args.seed, sampler)
            passes = measure_passes(
                cli, commands, workdir, args.seed, args.seconds - (time.perf_counter() - t0),
                MIN_TRACED_PASSES, sampler, traced=True,
            )
        untraced_wall = untraced["wall_s"]
        metrics, problems, exact = per_layer(passes, untraced_wall,
                                             earlier_record(record_path, env))
        passes.insert(0, untraced)
        passes[-1]["recorder"].write(workdir / "spans.csv.gz")
        detail = {}

    attempted = sum(p["ops"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    if args.trace == 1:
        metrics["ops"] = metric(attempted, "count")
        metrics["failed_frac"] = metric(failed / attempted, "ratio")
    failures = [f"{name}: {msg}" for p in passes for name, msgs in p["failures"].items()
                for msg in msgs]
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "samples": {"passes": len(passes), "setup_s": len(setup_times),
                    "invocations_per_pass": passes[-1]["invocations"]},
        "setup_samples_s": setup_times,
        "setup_samples_raw_s": setup_raw,
        "setup_samples_speed": setup_speed,
        "untraced_wall_s": untraced_wall,
        "pass_wall_s": [p["wall_s"] for p in passes],
        "pass_speed": [{k: statistics.median(v) for k, v in p["speed"].items()} for p in passes],
        "pass_raw_s": [p["raw_s"] for p in passes],
        "per_command": detail,
        "ops": attempted,
        "failed_frac": failed / attempted,
        "failures": failures,
        "trace_problems": problems,
        "exact_counts": exact,
        "inputs_sha256": digests,
        "environment": env,
    }
    result = {
        "correct": not failures and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    record["result"] = result
    record_path.write_text(json.dumps(record, indent=2) + "\n")
    print(json.dumps(record))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
