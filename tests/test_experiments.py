"""EXPERIMENTS.md's model columns are what ``benchmarks/report.py`` computes.

Each model figure of Table I, Fig. 10, Fig. 11 and Fig. 12 is parsed out
of EXPERIMENTS.md and must equal the report's value printed to the same
number of decimals (a range ``a-b`` is the minimum and the maximum of the
rows it spans).  A model change that moves a figure fails here until the
document is brought up to date from ``python -m benchmarks.report``.
"""

import pathlib
import re

from benchmarks import report
from repro.perf.energy import DevicePowerModel

EXPERIMENTS = pathlib.Path(__file__).resolve().parents[1] / "EXPERIMENTS.md"


def section(heading):
    """The text under the ``## heading...`` line, up to the next heading."""
    text = EXPERIMENTS.read_text()
    start = text.index(f"\n## {heading}")
    return text[start : text.find("\n## ", start + 1)]


def table(heading):
    """The body rows of a section's markdown table, cells stripped."""
    rows = [line for line in section(heading).splitlines() if line.startswith("|")]
    return [[cell.strip() for cell in row.strip("|").split("|")] for row in rows[2:]]


def check(cell, *values):
    """``cell`` — a number, or a range ``low-high`` over ``values`` — is
    what the values print as, to its decimals."""
    for value, shown in zip((min(values), max(values)), re.findall(r"[\d.]+", cell) * 2):
        printed = f"{value:.{len(shown.partition('.')[2])}f}"
        assert printed == shown, f"EXPERIMENTS.md shows {cell!r}, benchmarks/report.py {printed}"


def test_table1_model_columns():
    rows = table("Table I")
    values = list(report.table1_values().values())
    assert len(rows) == len(values)
    for (_, _, area, _, energy), (model_area, model_energy) in zip(rows, values):
        check(area, model_area)
        check(energy, model_energy)


def test_fig10_model_columns():
    rows, values = table("Fig. 10"), report.fig10_values()
    assert [row[0] for row in rows] == [
        "GEMV1", "GEMV2-4", "ADD1", "DS2", "RNN-T", "GNMT", "AlexNet", "ResNet-50",
    ]
    for name, _, b1, _, b2, b4 in rows:
        members = ["GEMV2", "GEMV3", "GEMV4"] if name == "GEMV2-4" else [name]
        for batch, cell in enumerate((b1, b2, b4)):
            check(cell, *(values[member][batch] for member in members))


def test_fig11_model_figures():
    text = " ".join(section("Fig. 11").split())
    model = DevicePowerModel()
    hbm, pim = model.hbm_breakdown(), model.pim_breakdown()
    for pattern, value in {
        r"cell (\S+) /": hbm["cell"],
        r"IOSA (\S+) /": hbm["iosa_decoders"],
        r"global bus (\S+) /": hbm["global_bus"],
        r"PHY (\S+) of": hbm["io_phy"],
        r"keeps a (\S+) command-distribution": pim["global_bus"],
        r"the (\d+)% buffer-die": 100 * model.gated_buffer_saving,
        r"adds (\S+) for the PIM units": pim["pim_units"],
        r"total x(\S+) \(paper": model.pim_total,
        r"Energy per bit: (\S+)x reduction": model.energy_per_bit_reduction,
    }.items():
        check(re.search(pattern, text).group(1), value)


def test_fig12_model_columns():
    rows, values = table("Fig. 12"), report.fig12_values()
    assert [row[0] for row in rows] == list(values)
    for name, _, vs_hbm, _, vs_x4 in rows:
        check(vs_hbm, values[name][0])
        check(vs_x4, values[name][1])
