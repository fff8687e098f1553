"""Longitudinal scanning walkthrough: a living hitlist over a churning world.

Real scan targets do not sit still: privacy addresses rotate, DHCP
pools cycle, hosts join and leave, and whole prefixes are reallocated.
This example turns the static simnet into a time-evolving one with
:class:`repro.simnet.dynamics.DynamicWorld`, then tracks the moving
population two ways:

* **full rescan** — regenerate and re-probe the entire campaign every
  epoch (the expensive baseline);
* **delta campaign** — keep a :class:`repro.hitlist.LivingHitlist` of
  decaying belief and only spend probes on addresses whose belief has
  decayed, plus a budgeted exploration slice seeded from the hitlist
  itself.

Both runs face the *same* deterministic churn (same worldfile, same
churn seed), so their freshness is directly comparable — the delta run
tracks the population at a fraction of the probe cost.

Run:  python examples/longitudinal_scan.py [scale] [budget] [epochs]
"""

import sys
import tempfile
from pathlib import Path

from repro.campaign import Campaign, CampaignSpec
from repro.hitlist import DeltaCampaign, LivingHitlist
from repro.ipv6.addrplane import pack
from repro.scanner.engine import ScanConfig
from repro.simnet.bgp import group_by_routed_prefix
from repro.simnet.dns import collect_seeds
from repro.simnet.dynamics import DynamicWorld
from repro.simnet.ground_truth import default_internet


def live_columns(internet):
    return pack(sorted(internet.all_active_hosts()))


def main() -> None:
    scale = float(sys.argv[1]) if len(sys.argv) > 1 else 0.1
    budget = int(sys.argv[2]) if len(sys.argv) > 2 else 800
    epochs = int(sys.argv[3]) if len(sys.argv) > 3 else 4

    print(f"building simulated Internet (scale={scale}) ...")
    internet = default_internet(scale=scale, rng_seed=7)
    seeds = collect_seeds(internet)
    groups = group_by_routed_prefix(seeds.addresses(), internet.bgp)
    spec = CampaignSpec(
        budget=budget,
        scan_config=ScanConfig(batch_size=256),
    )
    print(f"  {len(groups)} seed prefixes, "
          f"{internet.truth.host_count(80)} active hosts")

    # -- epoch 0: one full campaign seeds the living hitlist ----------
    store_path = Path(tempfile.mkdtemp()) / "hitlist.jsonl"
    store = LivingHitlist(path=store_path)
    dynamic = DynamicWorld(internet, churn_seed=3)
    bootstrap = Campaign(internet.truth, internet.bgp, groups, spec).run()
    store.observe(0, pack(sorted(bootstrap.run.all_targets())),
                  bootstrap.clean_hits)
    print(f"\nepoch 0 bootstrap: {len(bootstrap.clean_hits)} clean hits "
          f"-> store has {len(store)} entries")

    # -- epochs 1..N: the world churns, the delta campaign follows ----
    delta = DeltaCampaign(store, internet.bgp, spec)
    delta_probes = 0
    print("\n-- delta campaigns over a churning world --")
    for epoch in range(1, epochs + 1):
        dynamic.advance_to(epoch)
        # The epoch's fresh DNS snapshot joins the believed-live seeds:
        # seed intake is free, only planned probes cost budget.
        feed = collect_seeds(internet).addresses()
        plan, result = delta.run(internet.truth, epoch, extra_seeds=feed)
        delta_probes += plan.total
        quality = store.freshness(epoch, live_columns(internet))
        print(f"epoch {epoch}: re-probe {plan.reprobe_count:5d} "
              f"+ explore {plan.explore_count:5d} "
              f"(skipped {plan.filtered_recent} fresh)  "
              f"freshness {quality['freshness']:.2f}  "
              f"staleness {quality['staleness']:.2f}")
    store.snapshot()
    store.close()

    # -- the baseline: full regenerate-and-rescan every epoch ---------
    print("\n-- full-rescan baseline (same churn) --")
    internet2 = default_internet(scale=scale, rng_seed=7)
    dynamic2 = DynamicWorld(internet2, churn_seed=3)
    full_store = LivingHitlist()
    boot2 = Campaign(internet2.truth, internet2.bgp, groups, spec).run()
    full_store.observe(0, pack(sorted(boot2.run.all_targets())),
                       boot2.clean_hits)
    full_probes = 0
    for epoch in range(1, epochs + 1):
        dynamic2.advance_to(epoch)
        fresh_seeds = collect_seeds(internet2)
        fresh_groups = group_by_routed_prefix(
            fresh_seeds.addresses(), internet2.bgp
        )
        result = Campaign(
            internet2.truth, internet2.bgp, fresh_groups, spec
        ).run()
        probed = pack(sorted(result.run.all_targets()))
        full_probes += len(probed[0])
        full_store.observe(epoch, probed, result.clean_hits)
        quality = full_store.freshness(epoch, live_columns(internet2))
        print(f"epoch {epoch}: {len(probed[0]):6d} probes  "
              f"freshness {quality['freshness']:.2f}")

    ratio = delta_probes / full_probes if full_probes else 0.0
    print(f"\nprobe cost: delta {delta_probes} vs full {full_probes} "
          f"({ratio:.0%} of the baseline)")

    # The store survives on disk: reload and inspect it.
    reloaded = LivingHitlist.open(store_path)
    summary = reloaded.summary()
    reloaded.close()
    print(f"store reloaded from {store_path.name}: "
          f"{summary['entries']} entries, "
          f"{summary['believed_live']} believed live "
          f"as of epoch {summary['epoch']}")


if __name__ == "__main__":
    main()
