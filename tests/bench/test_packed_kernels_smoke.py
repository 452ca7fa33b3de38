"""Smoke-run the packed-kernel microbenchmark's ``--check`` mode in tier 1.

Exercises the full old-vs-new verification path (the bit-identity and
bit-count checks inside ``run_kernels``) on a small input so a regression
in either pipeline fails the ordinary test run, not just the long
benchmark.  Timings at this size
are noise, so no speedup floors are asserted here.
"""

from benchmarks.bench_packed_kernels import CHECK_ELEMS, run_mode


def test_check_mode_runs_and_reports(capsys):
    kernels = run_mode("check")
    assert set(kernels) == {"hop_merge", "pack_unpack", "elias_gamma"}
    for entry in kernels.values():
        assert entry["old_s"] > 0 and entry["new_s"] > 0
    out = capsys.readouterr().out
    assert f"{CHECK_ELEMS} elements" in out
