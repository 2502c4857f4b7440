"""The catalog census: every sequent of 0, 1 or 2 distinct premises over the
catalog names, proved as the CLI proves it.

    PYTHONPATH=src python3 tools/census.py

Each of the 737 sequents goes to prove() with its formulas definition-expanded
(expand_defs(axiom(name))) at the default SearchConfig.  Every sequent left
undecided then gets find_countermodel(..., 4).  It prints the status counts,
how many refutations came after a search that generated lines, how many
undecided sequents have a countermodel of size 4, the time of the failed
searches (their prove() calls alone), the time of the find_countermodel(...,
4) calls, the wall time, and two digests.  The first is over each sequent's
status, search counters, limits and emitted script: two trees search alike
on the census iff they print the same one.  The second is over every
countermodel seen, each refuted result's structure and each size-4 hit, by
describe(): two trees find the same models iff they print the same one.
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
statuses, after_search, size4, failed_s, size4_s = Counter(), 0, 0, 0.0, 0.0
digest, models_digest = hashlib.sha256(), hashlib.sha256()
for k in range(3):
    for premises in itertools.combinations(names, k):
        for goal in names:
            premise_formulas = [formula[p] for p in premises]
            t0 = time.perf_counter()
            r = prove(premise_formulas, formula[goal])
            elapsed = time.perf_counter() - t0
            statuses[r.status] += 1
            script = print_proof_script(r.proof) if r.proved else ""
            sequent = f"{','.join(premises)} {goal}"
            digest.update(
                f"{sequent} {r.status} {r.stats.lines_generated} "
                f"{r.stats.instantiations_tried} {','.join(r.limits)}\n{script}\n".encode()
            )
            if r.status == "refuted":
                after_search += r.stats.lines_generated > 0
                models_digest.update(f"{sequent} refuted {r.countermodel.describe()}\n".encode())
            elif not r.proved:
                failed_s += elapsed
                t0 = time.perf_counter()
                cm = find_countermodel(premise_formulas, formula[goal], 4)
                size4_s += time.perf_counter() - t0
                if cm is not None:
                    size4 += 1
                    models_digest.update(f"{sequent} size 4 {cm.describe()}\n".encode())
print(f"sequents {sum(statuses.values())}: " + ", ".join(f"{s} {n}" for s, n in sorted(statuses.items())))
print(f"refuted after a search with lines: {after_search}")
print(f"undecided with a size-4 countermodel: {size4}")
print(f"failed searches: {failed_s:.1f} s")
print(f"size-4 countermodel scans: {size4_s:.2f} s")
print(f"wall time: {time.perf_counter() - started:.1f} s")
print(f"digest: {digest.hexdigest()[:16]}")
print(f"countermodel digest: {models_digest.hexdigest()[:16]}")
