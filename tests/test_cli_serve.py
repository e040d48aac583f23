"""``python -m repro serve`` cluster invocations, in process.

One row per CI smoke invocation (at a smaller ``--requests``) with every
regex CI greps on its output, plus the composed invocation whose flags
must all be honoured at once.
"""

import re

import pytest

from repro.__main__ import main

CLUSTER = ["--rate", "200", "--tp", "2", "--dp", "2", "--router", "least-loaded"]

INVOCATIONS = {
    "cluster": (
        ["--requests", "6", *CLUSTER],
        [r"dp_speedup=[0-9.]+"],
    ),
    "failover-crash": (
        ["--requests", "6", *CLUSTER, "--fail-replica", "6"],
        [r"migration_pages=[1-9]", r"link_migration_bytes=[1-9]"],
    ),
    "failover-drain": (
        ["--requests", "6", *CLUSTER, "--fail-replica", "6:drain"],
        [r"migration_pages=[1-9]"],
    ),
    "prefix-cache": (
        ["--prefix-cache", "--requests", "12", "--rate", "40",
         "--router", "cache-aware"],
        [r"radix_hit_tokens=[1-9]", r"cascade_steps=[1-9]"],
    ),
    "overload": (
        # Seed 2 has no long-output straggler: 2.6 s of simulated time.
        ["--overload", "--dp", "2", "--requests", "32", "--rate", "40",
         "--tenants", "4", "--burst", "3", "--seed", "2"],
        [r"overload_rejected=[1-9]", r"breaker_open_total=[1-9]",
         r"brownout_engaged=[1-9]", r"final_level=0", r"slo_attainment="],
    ),
    "disagg": (
        ["--disagg", "prefill=1,decode=1", "--requests", "12", "--rate", "40"],
        [r"handoff_pages=[1-9]", r"link_handoff_bytes=[1-9]", r"p95_itl=", r"p95_ttft="],
    ),
    # CI's chaos-smoke row at half the requests: faults fire, and the
    # recovered run is token-exact against the workload's token oracle.
    "chaos": (
        ["--requests", "8", "--rate", "80", "--chaos", "--chaos-seed", "7"],
        [r"faults_injected=[1-9]"],
    ),
    # Every feature flag at once: none may shadow another.
    "composed": (
        ["--disagg", "prefill=2,decode=2", "--prefix-cache",
         "--fail-replica", "6", "--requests", "16", "--rate", "40"],
        [r"handoff_pages=[1-9]", r"link_handoff_bytes=[1-9]",
         r"migration_pages=[1-9]", r"link_migration_bytes=[1-9]",
         r"radix_hit_tokens=[1-9]"],
    ),
}


@pytest.mark.parametrize("name", INVOCATIONS)
def test_serve_prints_every_line_ci_greps(name, capsys):
    flags, greps = INVOCATIONS[name]
    rc = main(["serve", *flags])
    out = capsys.readouterr().out
    assert rc == 0, out
    for pattern in [r"token_divergence=0 \([1-9]", *greps]:
        assert re.search(pattern, out), f"{pattern!r} not in:\n{out}"


def test_serve_rejects_flags_it_cannot_honour(capsys):
    # A role split that contradicts --dp is an error naming both, not a
    # silently resized cluster.
    rc = main(["serve", "--disagg", "prefill=1,decode=1", "--dp", "4",
               "--requests", "4"])
    assert rc == 2
    assert "dp=4" in capsys.readouterr().err
    # ``prefill=2`` alone used to traceback out of a hand-rolled parser.
    rc = main(["serve", "--disagg", "prefill=2", "--requests", "4"])
    assert rc == 2
    assert "prefill" in capsys.readouterr().err
    # Out-of-range numbers are refused by the argument parser, not answered
    # with a traceback, ``nan`` latencies or a silently resized cluster.
    for flags in (["--tp", "0"], ["--tp", "-2"], ["--dp", "0"], ["--rate", "0"],
                  ["--requests", "0"], ["--seed", "-1"],
                  ["--chaos", "--chaos-seed", "-1"]):
        with pytest.raises(SystemExit) as exc:
            main(["serve", *flags])
        assert exc.value.code == 2
        assert f"argument {flags[-2]}:" in capsys.readouterr().err


@pytest.mark.parametrize("flags, err", [
    # An unknown name, and the flags of deleted choices.
    (["--router", "nope", "--dp", "2"], "argument --router: invalid choice"),
    (["--policy", "fcfs"], "unrecognized arguments: --policy"),
    (["--topology", "nvlink"], "unrecognized arguments: --topology"),
    # Out of range: a traceback from a config check, or silently accepted.
    (["--max-retries", "-1", "--chaos"], "argument --max-retries: must be >= 0"),
    (["--deadline", "-1", "--chaos"], "argument --deadline: must be > 0"),
    (["--crash-rate", "2", "--crash", "1"], "argument --crash-rate: must be >= 0 and < 1"),
    (["--crash", "-2"], "argument --crash: must be >= 0"),
    (["--checkpoint-every", "-3"], "argument --checkpoint-every: must be >= 0"),
    # A flag whose help says "requires" another one.
    (["--trace-csv", "out.csv"], "--trace-csv requires --trace"),
    (["--crash-rate", "0.5"], "--crash-rate requires --crash"),
    (["--tenants", "8"], "--tenants requires --overload"),
    (["--burst", "5"], "--burst requires --overload"),
    # Non-finite numbers: --burst nan/inf used to hang the workload generator.
    (["--overload", "--burst", "nan"], "argument --burst: must be >= 1"),
    (["--overload", "--burst", "inf"], "argument --burst: must be >= 1"),
    (["--overload", "--tenants", "0"], "argument --tenants: must be >= 1"),
    (["--rate", "inf"], "argument --rate: must be > 0"),
], ids=["router", "policy", "topology", "max-retries", "deadline", "crash-rate-range", "crash",
        "checkpoint-every", "trace-csv", "crash-rate-alone", "tenants-alone",
        "burst-alone", "burst-nan", "burst-inf", "tenants-zero", "rate-inf"])
def test_serve_refuses_a_bad_flag_in_one_line(flags, err, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["serve", "--requests", "2", *flags])
    assert exc.value.code == 2
    assert err in capsys.readouterr().err.splitlines()[-1]


def test_serve_recover_refuses_a_non_dividing_tp(capsys, tmp_path):
    # The engine would serve tp=3 with unsharded attention; the cold start
    # refuses it before opening the journal, in one stderr line.
    rc = main(["serve", "--recover", "--journal", str(tmp_path), "--tp", "3"])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert "tensor_parallel=3 must divide" in err


def test_serve_crash_journal_then_recover(capsys, tmp_path):
    # CI's crash-recovery-smoke row at half the requests, then a cold
    # start of the journal it leaves behind.
    journal = str(tmp_path / "ckpt")
    rc = main(["serve", "--requests", "8", "--rate", "80", "--chaos", "--chaos-seed", "7",
               "--crash", "3", "--checkpoint-every", "4", "--journal", journal])
    out = capsys.readouterr().out
    assert rc == 0, out
    for pattern in (r"crashes=[3-9]", r"mid-step", r"token_divergence=0 \([1-9]"):
        assert re.search(pattern, out), f"{pattern!r} not in:\n{out}"
    assert main(["serve", "--recover", "--journal", journal]) == 0
    assert "divergence=0" in capsys.readouterr().out
