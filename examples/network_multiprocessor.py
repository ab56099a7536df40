"""Scenario 2: a Tera-style multiprocessor with a multipath network.

The paper's second machine family (Section 4.5): no cache, addresses
hashed across memory modules, latency a zero-based normal whose mean
falls as more threads share the machine.  We sweep mean and deviation,
and also compare the three processor models -- UNLIMITED, MAX-8 and
LEN-8 (the Tera-style 8-cycle lookahead limit) -- on the noisiest
configuration.

Run:  python examples/network_multiprocessor.py
"""

from repro.core.balanced import BalancedScheduler
from repro.core.pipeline import compile_program
from repro.core.traditional import TraditionalScheduler
from repro.frontend.lowering import compile_minif
from repro.machine.memory import NetworkMemory
from repro.machine.processor import LEN_8, MAX_8, UNLIMITED
from repro.simulate.program import simulate_program
from repro.simulate.rng import spawn
from repro.simulate.stats import compare_runs

SOURCE = """
program particle_push
  array px[4096], pv[4096], fld[4096], cell[4096]
  # gather the field at each particle's cell (loads in series!)
  kernel gather freq 400 unroll 2
    t1 = fld[cell[i]] * q0
    pv[i] = pv[i] + t1
    en = en + t1 * pv[i]
  end
  # advance positions
  kernel push freq 400 unroll 2
    t1 = pv[i] * dt
    px[i] = px[i] + t1
  end
end
"""


def improvement_for(program, memory, processor, tag):
    traditional = compile_program(
        program, TraditionalScheduler(memory.mean_latency)
    )
    balanced = compile_program(program, BalancedScheduler())
    trad_runs = simulate_program(
        traditional.final_blocks, processor, memory,
        spawn("network", tag, "t"), runs=30,
    )
    bal_runs = simulate_program(
        balanced.final_blocks, processor, memory,
        spawn("network", tag, "b"), runs=30,
    )
    result = compare_runs(trad_runs, bal_runs, spawn("network", tag, "boot"))
    return result, trad_runs, bal_runs


def main() -> None:
    program = compile_minif(SOURCE)

    print("sweep over network load (UNLIMITED processor):")
    print(f"  {'network':10s}{'TI%':>7s}{'BI%':>7s}{'improvement':>26s}")
    for mean in (2, 3, 5):
        for sigma in (2, 5):
            memory = NetworkMemory(mean, sigma)
            result, trad_runs, bal_runs = improvement_for(
                program, memory, UNLIMITED, memory.name
            )
            print(
                f"  {memory.name:10s}"
                f"{trad_runs.interlock_percentage():7.1f}"
                f"{bal_runs.interlock_percentage():7.1f}"
                f"{str(result):>26s}"
            )

    print("\nprocessor models on N(5,5) (the noisiest design point):")
    memory = NetworkMemory(5, 5)
    for processor in (UNLIMITED, MAX_8, LEN_8):
        result, trad_runs, bal_runs = improvement_for(
            program, memory, processor, f"{memory.name}/{processor.name}"
        )
        print(
            f"  {processor.name:10s} TI%={trad_runs.interlock_percentage():5.1f}"
            f" BI%={bal_runs.interlock_percentage():5.1f}"
            f"   {result}"
        )

    print(
        "\nHigher sigma means more uncertainty, and the balanced"
        "\nscheduler's margin widens with it; the restricted processors"
        "\n(MAX-8, LEN-8) stall more overall but preserve the ordering."
    )


if __name__ == "__main__":
    main()
