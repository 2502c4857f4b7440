"""The catalog census: every sequent of 0, 1 or 2 distinct premises over the
catalog names, proved as the CLI proves it.

    PYTHONPATH=src python3 tools/census.py

Each of the 737 sequents goes to prove() with its formulas definition-expanded
(expand_defs(axiom(name))) at the default SearchConfig.  Every sequent left
undecided then gets find_countermodel(..., 4).  It prints the status counts,
how many refutations came after a search that generated lines, how many
undecided sequents have a countermodel of size 4, and the wall time.
"""

import itertools
import time
from collections import Counter

from dirgeo.geometry import axiom, axiom_names, expand_defs
from dirgeo.models import find_countermodel
from dirgeo.search import prove

started = time.perf_counter()
names = axiom_names()
formula = {name: expand_defs(axiom(name)) for name in names}
statuses, after_search, size4 = Counter(), 0, 0
for k in range(3):
    for premises in itertools.combinations(names, k):
        for goal in names:
            premise_formulas = [formula[p] for p in premises]
            r = prove(premise_formulas, formula[goal])
            statuses[r.status] += 1
            if r.status == "refuted":
                after_search += r.stats.lines_generated > 0
            elif not r.proved:
                size4 += find_countermodel(premise_formulas, formula[goal], 4) is not None
print(f"sequents {sum(statuses.values())}: " + ", ".join(f"{s} {n}" for s, n in sorted(statuses.items())))
print(f"refuted after a search with lines: {after_search}")
print(f"undecided with a size-4 countermodel: {size4}")
print(f"wall time: {time.perf_counter() - started:.1f} s")
