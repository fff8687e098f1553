"""Scanner-integrated adaptive scanning (the paper's §8 future work).

Compares the classic "generate targets, then scan them all" pipeline
against the feedback loop the paper proposes, run as a phased
campaign: a small pilot scan, then 6Gen re-planned at growing quotas
from what the scans found, with the §6.2 alias test run between
phases so flagged /64s and /96s get no further probes.  Both get the
same probe budget; the phased campaign wastes far fewer probes on
aliased space.

Run:  python examples/adaptive_scan.py
"""

from repro.campaign import Campaign, CampaignSpec
from repro.core.sixgen import run_6gen
from repro.predictive import PredictiveAllocator
from repro.scanner.engine import Scanner
from repro.simnet.dns import collect_seeds
from repro.simnet.ground_truth import default_internet


def main() -> None:
    internet = default_internet(scale=0.15)
    seeds_all = collect_seeds(internet).addresses()
    # work inside the Akamai-like network: real subnets + aliased /56s
    akamai = internet.network_for_asn(20940)[0]
    seeds = [s for s in seeds_all if akamai.spec.routed_prefix.contains(s)]
    budget = 8_000
    print(f"network: {akamai.spec.routed_prefix} (Akamai-like, partly aliased)")
    print(f"seeds: {len(seeds)}, probe budget: {budget}\n")

    # --- classic pipeline: generate everything, scan everything ---------
    scanner = Scanner(internet.truth)
    result = run_6gen(seeds, budget)
    targets = result.new_targets(seeds)
    scan = scanner.scan(targets)
    real_hits = {h for h in scan.hits if not internet.truth.is_aliased(h)}
    print("classic pipeline (6Gen -> scan all targets):")
    print(f"  probes: {scan.stats.probes_sent}")
    print(f"  hits: {scan.hit_count()} "
          f"({len(real_hits)} real hosts, "
          f"{scan.hit_count() - len(real_hits)} aliased responses)")

    # --- adaptive pipeline: phased feedback campaign -----------------------
    campaign = Campaign(
        internet.truth, None, {akamai.spec.routed_prefix: seeds},
        CampaignSpec(budget=budget, dealias=False),
        allocation=PredictiveAllocator(),
    )
    adaptive = campaign.run()
    real_adaptive = {
        h for h in adaptive.raw_hits if not internet.truth.is_aliased(h)
    }
    print("\nadaptive pipeline (§8 phased feedback campaign):")
    print(f"  probes: {adaptive.probes_sent} (of {budget} allowed, "
          f"{campaign.alias_probes} on in-loop alias tests)")
    print(f"  hits: {len(adaptive.raw_hits)} ({len(real_adaptive)} real hosts)")
    print(f"  responses inside prefixes flagged aliased between phases: "
          f"{len(campaign.aliased_hits)}")

    # --- 6Tree-style successor: space-tree dynamic scanning ---------------
    from repro.successors.sixtree import run_sixtree

    scanner3 = Scanner(internet.truth)
    sixtree = run_sixtree(seeds, scanner3, budget)
    real_sixtree = {
        h for h in sixtree.hits if not internet.truth.is_aliased(h)
    }
    print("\n6Tree-style pipeline (space tree + hit-rate expansion):")
    print(f"  probes: {sixtree.probes_used}")
    print(f"  hits: {len(sixtree.hits)} ({len(real_sixtree)} real hosts)")
    print(f"  regions scanned: {sixtree.regions_scanned}, "
          f"expansions: {sixtree.expansions}, "
          f"alias-flagged: {len(sixtree.aliased_regions)}")

    saved = budget - adaptive.probes_sent
    print(f"\nadaptive campaign returned {saved} unused probes for other "
          f"networks and avoided pouring budget into aliased space.")


if __name__ == "__main__":
    main()
