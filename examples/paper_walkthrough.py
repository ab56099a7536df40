"""Walk through the paper's worked examples, end to end.

Regenerates, with commentary:
  * Figure 1/2 -- the serial-loads DAG and its three schedules,
  * Figure 3  -- the interlock curves,
  * Figure 4/5 -- the parallel-loads DAG,
  * Table 1   -- the full weight-contribution matrix for Figure 7.

Run:  python examples/paper_walkthrough.py
"""

from repro.experiments.figure2 import run_figure2
from repro.experiments.figure3 import run_figure3
from repro.experiments.table1 import run_table1


def main() -> None:
    print("=" * 70)
    print("Balanced Scheduling (Kerns & Eggers, PLDI 1993) -- walkthrough")
    print("=" * 70)

    figure2 = run_figure2()
    print()
    print(figure2.format())
    print(
        "\nThe greedy schedule gives every padding slot to L0; the lazy"
        "\nschedule gives none to anyone; the balanced scheduler measures"
        "\nthe load level parallelism (4 independent issue slots shared by"
        "\n2 serial loads -> weight 1 + 4/2 = 3) and splits it evenly."
    )

    print()
    figure3 = run_figure3()
    print(figure3.format())
    print(
        "\nBetween latencies 2 and 4 the balanced schedule is strictly"
        "\nbetter; at the extremes nothing any scheduler does matters."
    )

    print()
    table1 = run_table1()
    print(table1.format())
    print(
        "\nReading one row: L4 can overlap with L1 (1/4: it shares L1"
        "\nwith three other serial loads), with the parallel pair L5, L6"
        "\n(1 each) and with X1..X4 (1/3 each: the longest load path"
        "\nthrough that component is 3 loads deep)."
    )


if __name__ == "__main__":
    main()
