"""E15 -- external cache behaviour on traces larger than the benchmarks.

The paper could not measure Ecache effects directly: "Our benchmark
programs have static code sizes in the range of 50 KBytes to 270 KBytes so
we cannot get exact numbers ... because most of the benchmarks fit
entirely", so they turned to much larger (ATUM) traces.  We do the same
with the synthetic large-program generator: data and instruction streams
with footprints well beyond 64K words, under both write policies and on
the instruction side.  The size sweep is a row set of the bench report
(``repro campaign bench``), whose gate checks its shape.
"""

from repro.core import EcacheConfig
from repro.ecache import Ecache
from repro.traces.synthetic import SyntheticProgram, paper_regime_program


def _write_policy_study():
    program = SyntheticProgram(data_words=300_000, seed=0x5EED)
    refs = list(program.data_trace(250_000))
    results = {}
    for write_through in (True, False):
        cache = Ecache(EcacheConfig(size_words=65536,
                                    write_through=write_through))
        stall = 0
        for address, is_store in refs:
            if is_store:
                stall += cache.write(address, True)
            else:
                stall += cache.read(address, True)
        results["write-through" if write_through else "write-back"] = (
            cache.stats.miss_rate, stall / len(refs))
    return results


def test_write_policy(benchmark, report):
    report.name = "ecache_write_policy"
    results = benchmark.pedantic(_write_policy_study, rounds=1, iterations=1)
    report.table(["policy", "miss rate", "stall cycles/ref"],
                 [(name, round(miss, 3), round(stall, 3))
                  for name, (miss, stall) in results.items()],
                 "Write policy (the board-level choice the paper leaves "
                 "open; buffered write-through never stalls on stores)")
    wt_miss, wt_stall = results["write-through"]
    wb_miss, wb_stall = results["write-back"]
    # write-back allocates on stores, so later loads hit more often...
    assert wb_miss <= wt_miss + 0.02
    # ...but write-through's buffered stores never stall
    assert wt_stall <= wb_stall + 0.05


def _instruction_side():
    trace = list(paper_regime_program().instruction_trace(300_000))
    rows = []
    for size in (8192, 65536):
        cache = Ecache(EcacheConfig(size_words=size))
        stall = sum(cache.ifetch(address, True) for address in trace)
        rows.append((size, cache.stats.miss_rate, stall / len(trace)))
    return rows


def test_instruction_fetchbacks_through_ecache(benchmark, report):
    report.name = "ecache_ifetch"
    rows = benchmark.pedantic(_instruction_side, rounds=1, iterations=1)
    report.table(["ecache words", "miss rate", "stall cycles/fetch"],
                 [(size, round(miss, 4), round(stall, 4))
                  for size, miss, stall in rows],
                 "Instruction side: the 40K-word synthetic program fits "
                 "the 64K-word Ecache (the paper's situation)")
    small, big = rows
    # the paper's point: the benchmarks "fit entirely" in the Ecache --
    # at 64K words only the compulsory (cold) misses remain
    compulsory = paper_regime_program().code_words / 4  # words per line
    assert big[1] < 0.05
    assert big[1] < small[1]
