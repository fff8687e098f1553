"""Internet-wide scan walkthrough: the paper's §6 pipeline end to end.

Builds the simulated IPv6 Internet, collects the FDNS-style seed
snapshot, runs 6Gen per routed prefix with a fixed budget, actively
scans the generated targets on TCP/80, and dealiases the hits — then
prints the §6.2-style census and a Table 1-style top-AS breakdown.

Run:  python examples/internet_scan.py [scale] [budget]
"""

import sys

from repro.analysis.metrics import top_ases
from repro.campaign.generate import generate_per_prefix
from repro.scanner.dealias import dealias
from repro.scanner.engine import Scanner
from repro.simnet.bgp import group_by_routed_prefix
from repro.simnet.dns import collect_seeds
from repro.simnet.ground_truth import default_internet


def main() -> None:
    scale = float(sys.argv[1]) if len(sys.argv) > 1 else 0.2
    budget = int(sys.argv[2]) if len(sys.argv) > 2 else 5_000

    print(f"building simulated Internet (scale={scale}) ...")
    internet = default_internet(scale=scale)
    seeds = collect_seeds(internet)
    groups = group_by_routed_prefix(seeds.addresses(), internet.bgp)
    print(
        f"  {len(internet.bgp)} routed prefixes, "
        f"{internet.truth.host_count(80)} active hosts, "
        f"{len(seeds.addresses())} unique seeds in {len(groups)} prefixes"
    )

    print(f"\nrunning 6Gen per routed prefix (budget {budget}/prefix) ...")
    run = generate_per_prefix(groups, budget)
    targets = run.all_targets()
    print(f"  {len(targets)} targets generated")

    print("\nscanning TCP/80 ...")
    scanner = Scanner(internet.truth)
    scan = scanner.scan(targets)
    print(f"  {scan.stats.probes_sent} probes, {scan.hit_count()} hits "
          f"(rate {scan.stats.hit_rate:.1%})")

    print("\ndealiasing (/96 probing + AS-level inspection) ...")
    report = dealias(scan.hits, scanner, internet.bgp)
    print(f"  aliased /96 prefixes: {len(report.aliased_prefixes)}")
    print(f"  ASes aliased finer than /96: "
          f"{sorted(internet.as_name(a) for a in report.aliased_asns)}")
    print(f"  aliased hits: {len(report.aliased_hits)} "
          f"({report.aliased_fraction():.1%} of all hits)")
    new_clean = report.clean_hits - set(seeds.addresses())
    print(f"  dealiased hits: {len(report.clean_hits)} "
          f"({len(new_clean)} newly discovered hosts)")

    print("\ntop ASes by dealiased hits:")
    for row in top_ases(report.clean_hits, internet.bgp, internet.registry, 5):
        print(f"  {row}")


if __name__ == "__main__":
    main()
