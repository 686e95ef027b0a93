"""Every invocation in cli_digests.py gives the stdout, stderr, exit code
and plot file that tests/cli_digests.txt records, so that no command's
output moves unnoticed. The invocations run in this interpreter, through
rainlink.cli.main; a few also run as processes, as the tool runs them, to
show that the two give the same lines."""

from __future__ import annotations

from pathlib import Path

import cli_digests

RECORDED = Path(__file__).with_name("cli_digests.txt")

# a plot file, a table with warnings on stderr, a series file read by the
# row loop, and an error exit
IN_BOTH = ("fixture/plot/cnr_dB", "sweep-grid/stations/table",
           "series-gateways/attenuation-series-naive/empirical_exceedance",
           "edge/sweep-plot-data-missing-dir")


def test_every_invocation_gives_its_recorded_digests(tmp_path):
    recorded = RECORDED.read_text(encoding="utf-8").splitlines()
    assert list(cli_digests.lines(str(tmp_path), cli_digests.in_process)) == recorded
    in_both = [line for line in recorded if line.split()[0] in IN_BOTH]
    assert len(in_both) == len(IN_BOTH)
    assert list(cli_digests.lines(str(tmp_path), names=IN_BOTH)) == in_both
