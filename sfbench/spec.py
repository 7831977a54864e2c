"""What the benchmark measures: workloads, metrics, bounds, and which
end-to-end metric each layer metric should move on which workload.

``benchmark_json`` renders the repository's BENCHMARK.json from these
tables, so the file and the code cannot drift apart.
"""

from __future__ import annotations

RUN_SECONDS = 30

WORKLOADS = (
    ("cli-cold", "one fresh sf process per cheap job: start-up and import "
                 "dominate and the minimizer never runs"),
    ("oracle-batch", "sf --batch over jobs that reach the minimizer, run by "
                     "the default thread pool under the GIL"),
    ("construct-batch", "sf --batch over many cheap jobs of every command "
                        "but minimize, with renders and invalid jobs; the "
                        "minimizer makes zero calls"),
)

# Measured with tracing off, over the sf processes of one run:
#   setup_s      median wall time of `sf --version`, exec to exit, sampled
#                across the run (interpreter, package import, argparse);
#   jobs_per_s   jobs over the summed wall time of the job processes;
#   job_ms_p50/  quantiles of wall time per job: of each process on
#   job_ms_p90   cli-cold, of each batch process divided by its job count
#                on the batch workloads;
#   peak_rss_mb  peak resident set of a job process (wait4), median over
#                the run's processes;
#   ok_share     1 - failed_share, the share of jobs the checker passes (a
#                gated metric must not read 0, so failed_share itself is
#                printed and counted in the result's "failed" instead).
#
# name, unit, better, bound (share of the parent's median).  The timing
# bounds are wide because a cold sf process varies by +-10 % over minutes on
# a shared 2-core machine, which no amount of work inside one run averages
# out; the spreads measured are listed in CHANGES.md.
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("jobs_per_s", "1/s", "higher", 0.25),
    ("job_ms_p50", "ms", "lower", 0.25),
    ("job_ms_p90", "ms", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
    ("ok_share", "share", "higher", 0.02),
)

ALL = ("cli-cold", "oracle-batch", "construct-batch")
START = {"setup_s": ALL, "jobs_per_s": ("cli-cold",),
         "job_ms_p50": ("cli-cold",)}
CONSTRUCT = {"jobs_per_s": ("construct-batch",)}
ORACLE = {"jobs_per_s": ("oracle-batch",)}
FAILS = {"ok_share": ALL}


# name, unit, better, {end-to-end metric: workloads it should move on}
PER_LAYER = (
    ("import.snellfagnano_ms", "ms", "lower", START),
    ("import.numpy_ms", "ms", "lower", START),
    ("cli.run_spec.calls", "count", "lower", CONSTRUCT),
    ("cli.run_spec.self_ms", "ms", "lower", CONSTRUCT),
    ("cli.run_spec.p50_ms", "ms", "lower", CONSTRUCT),
    ("cli.run_spec.p90_ms", "ms", "lower", CONSTRUCT),
    ("cli.run_spec.cpu_share", "share", "higher", ORACLE),
    ("cli.errors_by_exit_code.2", "count", "lower", FAILS),
    ("cli.errors_by_exit_code.3", "count", "lower", FAILS),
    ("cli.errors_by_exit_code.4", "count", "lower", FAILS),
    ("cli.errors_by_exit_code.5", "count", "lower", FAILS),
    ("construction.snell_fagnano_point.calls", "count", "lower", CONSTRUCT),
    ("construction.snell_fagnano_point.self_ms", "ms", "lower", CONSTRUCT),
    ("construction.snell_fagnano_point.p50_us", "us", "lower", CONSTRUCT),
    ("construction.snell_fagnano_point.p90_us", "us", "lower", CONSTRUCT),
    ("construction.verify_snell_point.self_ms", "ms", "lower", CONSTRUCT),
    ("construction.raised", "count", "lower", FAILS),
    ("apollonius.tilde_triangle.self_ms", "ms", "lower", CONSTRUCT),
    ("apollonius.apollonian_common_points.self_ms", "ms", "lower", CONSTRUCT),
    ("coordinates.tripolar_to_points.calls", "count", "lower", CONSTRUCT),
    ("coordinates.tripolar_to_points.self_ms", "ms", "lower", CONSTRUCT),
    ("coordinates.self_ms", "ms", "lower", CONSTRUCT),
    ("optimize.minimize_inscribed.calls", "count", "lower", ORACLE),
    ("optimize.minimize_inscribed.self_ms", "ms", "lower", ORACLE),
    ("optimize.minimize_inscribed.p50_ms", "ms", "lower", ORACLE),
    ("optimize.minimize_inscribed.p90_ms", "ms", "lower", ORACLE),
    ("optimize.minimize_inscribed.run_spec_share", "share", "lower", ORACLE),
    ("optimize.objective_evals", "count", "lower", ORACLE),
    ("optimize.evals_per_call", "count", "lower", ORACLE),
    ("billiards.billiard_step.calls", "count", "lower", CONSTRUCT),
    ("billiards.billiard_step.self_ms", "ms", "lower", CONSTRUCT),
    ("billiards.solve_river.calls", "count", "lower", CONSTRUCT),
    ("billiards.solve_river.self_ms", "ms", "lower", CONSTRUCT),
    ("billiards.solve_river.p50_us", "us", "lower", CONSTRUCT),
    ("render.render_scene.calls", "count", "lower", CONSTRUCT),
    ("render.render_scene.self_ms", "ms", "lower", CONSTRUCT),
    ("serialize.dumps.calls", "count", "lower", CONSTRUCT),
    ("serialize.dumps.self_ms", "ms", "lower", CONSTRUCT),
    ("serialize.dumps.bytes_out", "bytes", "lower", CONSTRUCT),
    ("trace.overhead_share", "share", "lower", {}),
)

UNITS = {name: unit for name, unit, _, _ in END_TO_END}
UNITS.update({name: unit for name, unit, _, _ in PER_LAYER})


def benchmark_json() -> dict:
    return {
        "command": ["python3", "sfbench/run.py"],
        "paths": ["sfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": w} for n, w in WORKLOADS],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": d}
                       for n, u, b, d in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": b}
                      for n, u, b, _ in PER_LAYER],
    }


def layer_map() -> dict:
    """Per-layer metric -> {end-to-end metric: [workloads]}."""
    return {n: {k: list(v) for k, v in moves.items()}
            for n, _, _, moves in PER_LAYER}
