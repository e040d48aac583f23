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
        [r"handoff_pages=[1-9]", r"link_handoff_bytes=[1-9]", r"p95_itl="],
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
    for pattern in ["token_divergence=0 ", *greps]:
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
