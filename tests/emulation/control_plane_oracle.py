"""The naive control-plane oracles the emulator's fast paths must equal.

The emulator runs one BGP schedule (event-driven, persistent
Adj-RIB-In) and one IGP recomputation (incremental invalidation on
``IgpState.rebuild``).  Their references live here, with the tests
that compare against them:

* :func:`simulate_rounds` is the synchronous-rounds BGP schedule: every
  round the Adj-RIB-In is rebuilt from scratch, every router re-decides
  every prefix, and the export->import pipeline runs per session with
  no update groups and no memo;
* the IGP oracle needs no code: it is a fresh ``IgpState`` built on the
  post-change network, i.e. every cache dropped;
* :func:`reference_control_plane` swaps both into the engines for the
  duration of a ``with`` block, so a lab booted, forked and faulted
  inside it runs the oracles end to end.
"""

from __future__ import annotations

import contextlib
from typing import Optional

from repro.emulation.bgp_engine import BgpResult, BgpRoute, BgpSimulation, Session
from repro.emulation.ospf_engine import IgpState


def can_export(simulation: BgpSimulation, route: BgpRoute, session: Session) -> bool:
    """The per-session export check, split horizon included."""
    if route.learned_from == session.peer:
        return False
    return simulation._export_policy(route, session)


def import_route(
    simulation: BgpSimulation,
    receiver: str,
    sender: str,
    route: BgpRoute,
    session: Session,
):
    """Apply receive-side checks and policy; None means rejected."""
    if not session.is_ebgp and route.originator == receiver:
        return None  # reflection loop back to the originator
    return simulation._import_policy(receiver, sender, route, session)


def simulate_rounds(
    simulation: BgpSimulation, max_rounds: int, resume_from: Optional[dict] = None
) -> BgpResult:
    """The reference schedule: full Adj-RIB-In rebuild every round."""
    selected = simulation._seed_selected(resume_from)
    seen: dict[tuple, int] = {}
    history: list[dict] = []
    messages = 0

    for round_index in range(max_rounds + 1):
        state = simulation._state_key(selected)
        if simulation.keep_history:
            history.append(simulation._snapshot(selected))
        if state in seen:
            # A revisit after exactly one transition is a fixpoint
            # (the state mapped to itself); a longer period is a
            # persistent oscillation.
            period = round_index - seen[state]
            converged = period == 1
            return BgpResult(
                converged=converged,
                oscillating=not converged,
                rounds=round_index,
                period=0 if converged else period,
                detected_period=period,
                selected=selected,
                history=history,
                session_warnings=list(simulation.warnings),
                messages=messages,
            )
        seen[state] = round_index

        rib_in: dict[str, dict] = {name: {} for name in simulation.network.machines}
        for name, session_list in simulation.sessions.items():
            for session in session_list:
                for prefix, route in selected.get(name, {}).items():
                    if not can_export(simulation, route, session):
                        continue
                    advert = simulation._export(name, route, session)
                    imported = import_route(simulation, session.peer, name, advert, session)
                    messages += 1
                    if imported is not None:
                        rib_in[session.peer][(name, prefix)] = imported

        new_selected: dict[str, dict] = {}
        for name, device in simulation.network.machines.items():
            if device.bgp is None:
                continue
            candidates_by_prefix: dict = {}
            for prefix, route in simulation.local_routes.get(name, {}).items():
                candidates_by_prefix.setdefault(prefix, []).append(route)
            for (_, prefix), route in rib_in.get(name, {}).items():
                candidates_by_prefix.setdefault(prefix, []).append(route)
            table = {}
            for prefix, candidates in candidates_by_prefix.items():
                best = simulation.decide(name, candidates)
                if best is not None:
                    table[prefix] = best
            new_selected[name] = table
        selected = new_selected

    return BgpResult(
        converged=False,
        oscillating=False,
        rounds=max_rounds,
        selected=selected,
        history=history,
        session_warnings=list(simulation.warnings),
        messages=messages,
    )


def _rebuild_from_scratch(igp: IgpState, network=None) -> None:
    """``IgpState.rebuild`` with every cache dropped: the IGP oracle."""
    igp.__init__(network if network is not None else igp.network)


@contextlib.contextmanager
def reference_control_plane():
    """Run the oracles in place of the fast paths inside the block.

    ``BgpSimulation.run`` schedules with :func:`simulate_rounds`, and
    ``IgpState.rebuild`` re-initialises the state instead of
    invalidating incrementally.  Labs keep whatever engine objects they
    hold, so a lab must be booted *and* driven inside the block for its
    whole control plane to be the reference one.
    """
    events = BgpSimulation._simulate_events
    rebuild = IgpState.rebuild
    BgpSimulation._simulate_events = simulate_rounds
    IgpState.rebuild = _rebuild_from_scratch
    try:
        yield
    finally:
        BgpSimulation._simulate_events = events
        IgpState.rebuild = rebuild
