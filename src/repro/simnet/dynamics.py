"""Time dimension for the simulated Internet: deterministic churn.

The hitlist literature (Gasser et al. 2016, 2018) shows that a target
list's value lies in how it is *maintained*: addresses rotate, DHCP
pools cycle, hosts come and go, prefixes change hands, aliased regions
appear and disappear.  This module gives :class:`~repro.simnet.
ground_truth.SimInternet` that time axis as a deterministic epoch
clock:

* :class:`ChurnModel` — the event processes, every draw a PRF of
  ``(churn_seed, network, host, epoch)``, never sequential RNG state;
* :class:`DynamicWorld` — wraps an assembled internet and mutates it in
  place via :meth:`DynamicWorld.advance_to`, routing every change
  through the ground truth's ``add_host`` / ``remove_host`` and the
  aliased set's ``add`` / ``remove`` cache-invalidation hooks.

Determinism contract: the state at epoch ``E`` is a pure function of
``(worldfile, churn_seed, E)``.  Epoch 0 is the pristine build; a step
from epoch ``e-1`` to ``e`` is a pure function of the epoch-``e-1``
state and ``e``; and :meth:`advance_to` always replays steps from the
last cached epoch (or from 0 on rewind), so *any* path of calls —
``advance_to(5)`` directly, ``1, 2, …, 5`` stepwise, or ``7`` then back
to ``5`` — lands on the bit-identical world.  Two independent processes
loading the same world file therefore agree on every
``all_active_hosts`` column and every scan verdict at any epoch.

Event processes (all rates are per epoch; an epoch nominally models one
day):

* **privacy rotation** — hosts in ``privacy-random`` networks draw a
  new interface identifier with probability ``1 - 0.5**(1/half_life)``;
* **DHCP pool cycling** — ``dhcpv6-sequential`` networks shift every
  lease by ``dhcp_pool_shift`` each ``dhcp_cycle_epochs``;
* **join/leave** — hosts leave (and new hosts join, with
  policy-appropriate addresses) at base rates scaled by a
  per-allocation-policy turnover factor;
* **prefix reallocation** — with small probability a routed prefix
  changes hands: its host population is rebuilt wholesale from the
  spec under a generation-keyed RNG;
* **alias flips** — each aliased region (plus one latent region per
  aliased network, absent at epoch 0) toggles between present and
  dark.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Mapping

from ..ipv6.addrplane import _prf_bits, _prf_unit
from ..ipv6.prefix import Prefix, network_mask
from ..telemetry.spans import Telemetry, ensure
from .aliasing import AliasedRegion
from .ground_truth import BuiltNetwork, NetworkSpec, SimInternet, build_network

if TYPE_CHECKING:  # pragma: no cover - typing only
    import numpy as np

# Domain-separation salts: each churn question gets its own constant so
# e.g. "does this host leave" and "does this host rotate" are
# independent draws (mirrors repro.faults.models).
_SALT_LEAVE = 0x9E3779B97F4A7C15
_SALT_JOIN = 0xC2B2AE3D27D4EB4F
_SALT_JOIN_ID = 0x165667B19E3779F9
_SALT_JOIN_SUBNET = 0x27D4EB2F165667C5
_SALT_ROTATE = 0x85EBCA77C2B2AE63
_SALT_ROTATE_IID = 0xFF51AFD7ED558CCD
_SALT_REALLOC = 0xC4CEB9FE1A85EC53
_SALT_REBUILD = 0x2545F4914F6CDD1D
_SALT_ALIAS = 0x9D8A7B6C5D4E3F21
_SALT_PORT = 0x6C62272E07BB0142


#: Per-allocation-policy turnover multipliers applied to the base
#: join/leave rates: statically addressed server farms are stable,
#: leased pools cycle tenants, client networks are the most transient.
DEFAULT_POLICY_TURNOVER: dict[str, float] = {
    "low-byte": 0.5,
    "dhcpv6-sequential": 1.5,
    "slaac-eui64": 1.0,
    "privacy-random": 2.0,
    "port-embed": 0.5,
    "hex-word": 0.5,
    "ipv4-embed": 0.5,
}


@dataclass(frozen=True)
class ChurnConfig:
    """Rates for the churn event processes (all per epoch ≈ per day)."""

    #: Epochs until half of a privacy network's hosts have rotated
    #: their interface identifier (<= 0 disables rotation).
    privacy_half_life: float = 2.0
    #: DHCP networks re-lease their pool every this many epochs
    #: (0 disables cycling).
    dhcp_cycle_epochs: int = 4
    #: Low-bits offset applied to every lease at a pool cycle.
    dhcp_pool_shift: int = 0x200
    #: Base per-host probability of leaving per epoch.
    leave_rate: float = 0.02
    #: Base joins per epoch, as a fraction of the spec's host count.
    join_rate: float = 0.02
    #: Per-network probability of prefix reallocation per epoch.
    realloc_rate: float = 0.004
    #: Per-region probability of toggling present/dark per epoch.
    alias_flip_rate: float = 0.02
    #: Policy-name -> multiplier on the join/leave base rates.
    policy_turnover: Mapping[str, float] = field(
        default_factory=lambda: dict(DEFAULT_POLICY_TURNOVER)
    )

    def turnover(self, policy_name: str) -> float:
        return self.policy_turnover.get(policy_name, 1.0)

    @property
    def rotation_probability(self) -> float:
        if self.privacy_half_life <= 0:
            return 0.0
        return 1.0 - 0.5 ** (1.0 / self.privacy_half_life)


def _latent_region(spec: NetworkSpec) -> AliasedRegion | None:
    """One extra aliased region per aliased network, dark at epoch 0.

    Placed by the same high-end scheme as
    :func:`~repro.simnet.ground_truth.build_network`, at the next free
    region index of the spec's first aliased length, so a latent region
    that flips on never collides with a built one.
    """
    if not spec.aliased_lengths:
        return None
    length = spec.aliased_lengths[0]
    region_bits = min(length - spec.routed_prefix.length, 24)
    index = sum(1 for have in spec.aliased_lengths if have == length)
    if index >= (1 << region_bits):
        return None
    region_id = (1 << region_bits) - 1 - index
    network = spec.routed_prefix.network | (region_id << (128 - length))
    return AliasedRegion(Prefix.containing(network, length), frozenset({80, 443}))


@dataclass(frozen=True)
class _BaseNetwork:
    """Immutable epoch-0 snapshot of one network (the walk's origin)."""

    spec: NetworkSpec
    hosts: tuple[int, ...]
    regions: tuple[AliasedRegion, ...]
    latent: AliasedRegion | None
    subnets: tuple[int, ...]

    @property
    def all_regions(self) -> tuple[AliasedRegion, ...]:
        if self.latent is None:
            return self.regions
        return self.regions + (self.latent,)

    @classmethod
    def snapshot(cls, network: BuiltNetwork) -> "_BaseNetwork":
        spec = network.spec
        hosts = tuple(sorted(network.active_hosts))
        mask = network_mask(spec.subnet_length)
        subnets = tuple(sorted({addr & mask for addr in hosts}))
        return cls(
            spec=spec,
            hosts=hosts,
            regions=tuple(network.aliased_regions),
            latent=_latent_region(spec),
            subnets=subnets,
        )


@dataclass
class NetworkEpochState:
    """One network's churned state at some epoch (walk cursor)."""

    epoch: int
    generation: int
    #: stable host identity -> current address.  Identities are the
    #: original address for epoch-0 hosts and a PRF id for joiners, so
    #: rotation/cycling move a host without forgetting who it is.
    hosts: dict[int, int]
    #: presence flag per entry of ``base.all_regions``.
    present: list[bool]

    def addresses(self) -> set[int]:
        return set(self.hosts.values())

    def copy(self) -> "NetworkEpochState":
        return NetworkEpochState(
            epoch=self.epoch,
            generation=self.generation,
            hosts=dict(self.hosts),
            present=list(self.present),
        )


class ChurnModel:
    """The churn event processes as pure functions of the epoch.

    Every Bernoulli draw is a PRF of ``(seed, salt, network, host,
    epoch, …)`` — no sequential RNG state — so a walk replayed from any
    starting point produces the identical trajectory.
    """

    def __init__(self, seed: int, config: ChurnConfig | None = None):
        self.seed = int(seed)
        self.config = config or ChurnConfig()

    # -- one epoch step (pure in (state, e)) ---------------------------

    def step(self, index: int, base: _BaseNetwork, state: NetworkEpochState) -> None:
        """Advance one network's state from epoch ``e-1`` to ``e`` in place."""
        cfg = self.config
        spec = base.spec
        e = state.epoch + 1
        seed = self.seed
        sub_mask = network_mask(spec.subnet_length)
        host_mask = (1 << (128 - spec.subnet_length)) - 1

        if cfg.realloc_rate and _prf_unit(seed, _SALT_REALLOC, index, e) < cfg.realloc_rate:
            # The prefix changed hands: a new tenant's population is
            # rebuilt wholesale from the spec under a generation-keyed
            # RNG (deterministic, independent of the walk path).
            state.generation += 1
            rng = random.Random(
                _prf_bits(seed, _SALT_REBUILD, index, state.generation)
            )
            rebuilt = build_network(spec, rng)
            state.hosts = {addr: addr for addr in sorted(rebuilt.active_hosts)}
        else:
            turnover = cfg.turnover(spec.policy_name)
            gen = state.generation
            leave_rate = cfg.leave_rate * turnover
            if leave_rate:
                state.hosts = {
                    hid: addr
                    for hid, addr in state.hosts.items()
                    if _prf_unit(seed, _SALT_LEAVE, index, gen, hid, e) >= leave_rate
                }
            join_rate = cfg.join_rate * turnover
            if join_rate and base.subnets:
                expected = join_rate * spec.host_count
                count = int(expected)
                if _prf_unit(seed, _SALT_JOIN, index, gen, e) < expected - count:
                    count += 1
                for j in range(count):
                    hid = _prf_bits(seed, _SALT_JOIN_ID, index, gen, e, j)
                    pick = _prf_bits(seed, _SALT_JOIN_SUBNET, index, gen, e, j)
                    subnet = base.subnets[pick % len(base.subnets)]
                    state.hosts[hid] = subnet | self._join_iid(spec, hid, host_mask)
            if spec.policy_name == "privacy-random":
                p_rotate = cfg.rotation_probability
                if p_rotate:
                    for hid in list(state.hosts):
                        if _prf_unit(seed, _SALT_ROTATE, index, gen, hid, e) < p_rotate:
                            iid = _prf_bits(
                                seed, _SALT_ROTATE_IID, index, gen, hid, e
                            ) & host_mask
                            state.hosts[hid] = (state.hosts[hid] & sub_mask) | iid
            if (
                spec.policy_name == "dhcpv6-sequential"
                and cfg.dhcp_cycle_epochs
                and e % cfg.dhcp_cycle_epochs == 0
            ):
                shift = cfg.dhcp_pool_shift
                state.hosts = {
                    hid: (addr & sub_mask) | ((addr + shift) & host_mask)
                    for hid, addr in state.hosts.items()
                }

        if cfg.alias_flip_rate:
            for j in range(len(state.present)):
                if _prf_unit(seed, _SALT_ALIAS, index, j, e) < cfg.alias_flip_rate:
                    state.present[j] = not state.present[j]
        state.epoch = e

    def network_state(
        self,
        index: int,
        base: _BaseNetwork,
        epoch: int,
        resume: NetworkEpochState | None = None,
    ) -> NetworkEpochState:
        """The network's state at ``epoch``, replayed deterministically.

        ``resume`` (a state at an epoch <= the target) is a pure
        optimisation: the walk continues from it instead of epoch 0
        and lands on the identical state.
        """
        if resume is not None and resume.epoch <= epoch:
            state = resume.copy()
        else:
            state = NetworkEpochState(
                epoch=0,
                generation=0,
                hosts={addr: addr for addr in base.hosts},
                present=[True] * len(base.regions)
                + ([False] if base.latent is not None else []),
            )
        while state.epoch < epoch:
            self.step(index, base, state)
        return state

    @staticmethod
    def _join_iid(spec: NetworkSpec, hid: int, host_mask: int) -> int:
        """A policy-plausible interface identifier for a joining host."""
        name = spec.policy_name
        if name == "low-byte":
            bits = int(spec.policy_kwargs.get("bits", 8))
            span = max(1, (1 << bits) - 1)
            return 1 + (hid % span)
        if name == "dhcpv6-sequential":
            pool_base = int(spec.policy_kwargs.get("pool_base", 0x1000))
            span = max(1, 4 * spec.host_count)
            return (pool_base + spec.host_count + (hid % span)) & host_mask
        if name in ("port-embed", "hex-word", "ipv4-embed"):
            return 1 + (hid % 0xFFFF)
        # slaac-eui64 / privacy-random / unknown: opaque identifier.
        return hid & host_mask


class DynamicWorld:
    """A :class:`SimInternet` with a deterministic epoch clock.

    Wrap a *freshly built* internet (its state is adopted as epoch 0)
    and call :meth:`advance_to` to move the clock.  All mutations run
    through the ground truth's ``add_host`` / ``remove_host`` and the
    aliased set's ``add`` / ``remove`` hooks, so every memoised table
    (merged ping targets, frozen host keys, per-/64 alias decisions,
    frozen mask tables, the internet-level active-host union)
    invalidates, and the truth's ``world_version`` token advances —
    which is what makes stale :class:`~repro.scanner.plane.ScanPlane`
    reuse raise instead of probing an old world.
    """

    def __init__(
        self,
        internet: SimInternet,
        churn_seed: int = 0,
        config: ChurnConfig | None = None,
        *,
        telemetry: Telemetry | None = None,
    ):
        self.internet = internet
        self.model = ChurnModel(churn_seed, config)
        self.epoch = 0
        self.telemetry = telemetry
        self._tele = ensure(telemetry)
        self._base = [
            _BaseNetwork.snapshot(network) for network in internet.networks
        ]
        # Original extra-port membership for every epoch-0 address
        # (hosts with no extra services map to the empty tuple), so a
        # rewind — or a rejoining epoch-0 host — restores the exact
        # build-time service mix instead of drawing a fresh one.
        self._base_ports: dict[int, tuple[int, ...]] = {
            addr: ()
            for base in self._base
            for addr in base.hosts
        }
        for port in sorted(internet.truth.ports()):
            if port == 80:
                continue
            for addr in internet.truth.hosts(port):
                if addr in self._base_ports:
                    self._base_ports[addr] = self._base_ports[addr] + (port,)
        self._states: dict[int, NetworkEpochState] = {}

    @property
    def churn_seed(self) -> int:
        return self.model.seed

    def _ports_for(self, addr: int) -> tuple[int, ...]:
        """Which ports a (re)appearing host listens on.

        Epoch-0 hosts restore their build-time services; churn-created
        addresses draw theirs from a PRF of the address, so the
        service mix matches the world's ``port_rates`` without any
        order-dependent RNG.
        """
        base = self._base_ports.get(addr)
        if base is not None:
            return (80,) + base
        ports = [80]
        for port, rate in sorted(self.internet.port_rates.items()):
            if _prf_unit(self.model.seed, _SALT_PORT, addr, port) < rate:
                ports.append(port)
        return tuple(ports)

    def advance_to(self, epoch: int) -> "DynamicWorld":
        """Mutate the internet in place to its state at ``epoch``.

        Idempotent per epoch and path-independent: any sequence of
        calls (forward, skipping, or rewinding) lands on the
        bit-identical world for ``(world, churn_seed, epoch)``.
        Advancing to the *current* epoch is a no-op and leaves the
        ``world_version`` token untouched; any actual move bumps it.
        """
        epoch = int(epoch)
        if epoch < 0:
            raise ValueError(f"epoch must be >= 0: {epoch}")
        if epoch == self.epoch:
            return self
        internet = self.internet
        truth = internet.truth
        hosts_added = hosts_removed = 0
        regions_added = regions_removed = 0
        with self._tele.span(
            "epoch_advance", start=self.epoch, epoch=epoch
        ):
            all_ports = sorted(truth.ports())
            for i, network in enumerate(internet.networks):
                base = self._base[i]
                state = self.model.network_state(
                    i, base, epoch, resume=self._states.get(i)
                )
                self._states[i] = state
                target = state.addresses()
                current = network.active_hosts
                for addr in sorted(current - target):
                    for port in all_ports:
                        truth.remove_host(addr, port)
                    hosts_removed += 1
                for addr in sorted(target - current):
                    for port in self._ports_for(addr):
                        truth.add_host(addr, port)
                    hosts_added += 1
                network.active_hosts = target
                want = {
                    region
                    for region, flag in zip(base.all_regions, state.present)
                    if flag
                }
                have = set(network.aliased_regions)
                for region in base.all_regions:
                    if region in have and region not in want:
                        truth.aliased.remove(region)
                        regions_removed += 1
                    elif region in want and region not in have:
                        truth.aliased.add(region)
                        regions_added += 1
                network.aliased_regions = [
                    region for region in base.all_regions if region in want
                ]
            # Bumps the truth's version token even for a no-change
            # epoch move: the clock advanced, and frozen snapshots of
            # the old epoch must not be silently reused.
            internet.invalidate_caches()
            self.epoch = epoch
            if self._tele.enabled:
                self._tele.count("dynamics.hosts_added", hosts_added)
                self._tele.count("dynamics.hosts_removed", hosts_removed)
                self._tele.count("dynamics.regions_added", regions_added)
                self._tele.count("dynamics.regions_removed", regions_removed)
                self._tele.gauge("dynamics.epoch", epoch)
                self._tele.gauge(
                    "dynamics.active_hosts", len(internet.all_active_hosts())
                )
        return self

    def active_host_columns(self) -> "tuple[np.ndarray, np.ndarray]":
        """The live population as sorted packed ``(hi, lo)`` columns.

        The canonical bit-comparable digest of the world's state: two
        processes at the same ``(worldfile, churn_seed, epoch)`` get
        byte-identical arrays.
        """
        from ..ipv6.addrplane import pack

        return pack(sorted(self.internet.all_active_hosts()))


def world_at(
    world: "SimInternet | str | os.PathLike",
    churn_seed: int,
    epoch: int,
    config: ChurnConfig | None = None,
    *,
    telemetry: Telemetry | None = None,
) -> DynamicWorld:
    """The ``(worldfile, churn_seed, epoch)`` triple as one call.

    ``world`` is a world-file path (loaded and rebuilt
    deterministically) or an already-assembled pristine internet.
    """
    if isinstance(world, (str, os.PathLike)):
        from .worldfile import load_world

        world = load_world(world)
    dyn = DynamicWorld(world, churn_seed, config, telemetry=telemetry)
    dyn.advance_to(epoch)
    return dyn
