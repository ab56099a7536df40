"""Workload tuning dashboard (development tool, not part of the library)."""
import time
from repro.workloads.perfect import load_suite, clear_cache
from repro.experiments.common import ProgramEvaluator
from repro.machine import paper_system_rows, UNLIMITED
from repro.analysis import build_dag
from repro.core import balanced_weights

clear_cache()
suite = load_suite()
rows = paper_system_rows()
evs = {n: ProgramEvaluator(p) for n, p in suite.items()}
t0 = time.time()
print(f"{'system':22s}" + "".join(f"{n:>8s}" for n in suite) + "    mean")
for row in rows:
    vals = [evs[n].cell(row, UNLIMITED).imp_pct for n in suite]
    print(f"{row.label:22s}" + "".join(f"{v:8.1f}" for v in vals) + f"{sum(vals)/len(vals):8.1f}")
print("\nspill% (bal | t2 t2.6 t5 t30):")
for n, ev in evs.items():
    b = ev.balanced().spill_percentage
    ts = [ev.traditional(w).spill_percentage for w in (2, 2.6, 5, 30)]
    flag = "OK " if all(b <= t + 1e-9 for t in ts[1:]) else "!! "
    print(f"  {flag}{n:8s} bal={b:6.2f} | " + " ".join(f"{t:6.2f}" for t in ts))
print("\nweights summary:")
for n, p in suite.items():
    ws = []
    for fn in p:
        w = balanced_weights(build_dag(fn.blocks[0]))
        ws += [float(x) for x in w.values()]
    ws.sort()
    print(f"  {n:8s} loads={len(ws):3d} w[min/med/max]={ws[0]:.1f}/{ws[len(ws)//2]:.1f}/{ws[-1]:.1f}")
print("elapsed", round(time.time()-t0, 1), "s")
