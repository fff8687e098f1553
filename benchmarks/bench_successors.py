"""Dynamic TGAs head to head: 6Gen classic vs §8 adaptive vs 6Tree-style.

The paper's §8 predicts that scanner-integrated generation beats the
static generate-then-scan pipeline; 6Tree later confirmed it at
Internet scale.  This bench runs all three on one partly aliased
network with the same probe budget and compares probe efficiency
(real hosts discovered per probe).  The §8 adaptive row is the phased
campaign (``Campaign`` + ``PredictiveAllocator``), taken from
``adaptive_vs_classic_experiment`` together with the classic row.
"""

from repro.analysis.extensions import adaptive_vs_classic_experiment
from repro.scanner.engine import Scanner
from repro.simnet.dns import collect_seeds
from repro.simnet.ground_truth import default_internet
from repro.successors.sixtree import run_sixtree

BUDGET = 8_000
SCALE = 0.15
ASN = 20940  # the Akamai-like network: dense hosts + aliased regions


def test_dynamic_tga_comparison(benchmark, save_result):
    internet = default_internet(scale=SCALE)
    truth = internet.truth
    network = internet.network_for_asn(ASN)[0]
    seeds = [
        s
        for s in collect_seeds(internet).addresses()
        if network.spec.routed_prefix.contains(s)
    ]

    def run():
        names = {"classic": "6Gen classic", "adaptive": "§8 adaptive"}
        rows = [
            (names[row.pipeline], row.probes, row.real_hits)
            for row in adaptive_vs_classic_experiment(BUDGET, SCALE, ASN)
        ]

        scanner = Scanner(truth)
        sixtree = run_sixtree(seeds, scanner, BUDGET)
        real = {h for h in sixtree.hits if not truth.is_aliased(h)}
        rows.append(("6Tree-style", sixtree.probes_used, len(real)))
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    lines = [f"dynamic TGA comparison (budget {BUDGET}, Akamai-like network)"]
    lines.append(f"{'algorithm':<14} {'probes':>8} {'real hits':>10} {'per probe':>10}")
    for name, probes, real_hits in rows:
        eff = real_hits / probes if probes else 0.0
        lines.append(f"{name:<14} {probes:>8} {real_hits:>10} {eff:>10.4f}")
    save_result("successors", "\n".join(lines))

    by_name = {name: (probes, hits) for name, probes, hits in rows}
    classic_probes, classic_hits = by_name["6Gen classic"]
    classic_eff = classic_hits / classic_probes if classic_probes else 0

    # The §8 phased campaign (6Gen re-planned per phase from scan
    # feedback, in-loop alias tests) matches the classic pipeline's
    # discovery at far better probe efficiency.
    probes, hits = by_name["§8 adaptive"]
    assert hits >= classic_hits * 0.8
    assert hits / max(probes, 1) > classic_eff * 2

    # The 6Tree-style scanner conserves budget (alias halting, early
    # stops) and finds a meaningful share of the hosts — but its
    # hit-rate-gated expansion cannot reach seedless subnets that
    # 6Gen's cross-seed spans cover, so it trails on absolute hits.
    # (The honest structural tradeoff; real 6Tree pairs the tree with
    # richer target generation for the same reason.)
    probes, hits = by_name["6Tree-style"]
    assert probes < classic_probes
    assert hits >= classic_hits * 0.3
