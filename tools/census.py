"""The catalog census: every sequent of 0, 1 or 2 distinct premises over the
catalog names, proved as the CLI proves it.

    PYTHONPATH=src python3 tools/census.py

Each of the 737 sequents goes to prove() with its formulas definition-expanded
(expand_defs(axiom(name))) at the default SearchConfig.  Every sequent left
undecided then gets find_countermodel(..., 4).  It prints the status counts,
how many refutations came after a search that generated lines, how many
undecided sequents have a countermodel of size 4, the time of the failed
searches (their prove() calls alone), the wall time, and a digest over each
sequent's status, search counters, limits and emitted script: two trees
search alike on the census iff they print the same digest.
"""

import hashlib
import itertools
import time
from collections import Counter

from dirgeo.geometry import axiom, axiom_names, expand_defs
from dirgeo.kernel import print_proof_script
from dirgeo.models import find_countermodel
from dirgeo.search import prove

started = time.perf_counter()
names = axiom_names()
formula = {name: expand_defs(axiom(name)) for name in names}
statuses, after_search, size4, failed_s = Counter(), 0, 0, 0.0
digest = hashlib.sha256()
for k in range(3):
    for premises in itertools.combinations(names, k):
        for goal in names:
            premise_formulas = [formula[p] for p in premises]
            t0 = time.perf_counter()
            r = prove(premise_formulas, formula[goal])
            elapsed = time.perf_counter() - t0
            statuses[r.status] += 1
            script = print_proof_script(r.proof) if r.proved else ""
            digest.update(
                f"{','.join(premises)} {goal} {r.status} {r.stats.lines_generated} "
                f"{r.stats.instantiations_tried} {','.join(r.limits)}\n{script}\n".encode()
            )
            if r.status == "refuted":
                after_search += r.stats.lines_generated > 0
            elif not r.proved:
                failed_s += elapsed
                size4 += find_countermodel(premise_formulas, formula[goal], 4) is not None
print(f"sequents {sum(statuses.values())}: " + ", ".join(f"{s} {n}" for s, n in sorted(statuses.items())))
print(f"refuted after a search with lines: {after_search}")
print(f"undecided with a size-4 countermodel: {size4}")
print(f"failed searches: {failed_s:.1f} s")
print(f"wall time: {time.perf_counter() - started:.1f} s")
print(f"digest: {digest.hexdigest()[:16]}")
