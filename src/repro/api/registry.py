"""Unified, namespaced strategy registry — the library's one lookup.

Every strategy kind — the six §4.1 placement heuristics, the two
server selections and their §4.2 pairing with placements
(:func:`repro.core.pipeline.default_server_selection`), the dynamic
policies (:data:`repro.dynamic.policies.POLICY_FACTORIES`), and the
refinement, migration and pricing strategies — resolves through one
namespaced lookup::

    make("placement", "subtree-bottom-up")   # a PlacementHeuristic
    make("server", "three-loop")             # a ServerSelection
    make("policy", "harvest")                # a ReallocationPolicy
    make("refine", "local-search")           # the refinement callable
    make("migration", "state-size")          # a MigrationCostModel
    make("pricing", "proportional")          # a price-search auction

Strategy *references* may also be written fully qualified —
``"placement:subtree-bottom-up"`` — which :func:`parse` splits; the
request objects of :mod:`repro.api.requests` accept either form.

Downstream code extends any namespace without editing core modules::

    from repro.api import register

    @register("placement", "my-heuristic")
    class MyHeuristic(PlacementHeuristic):
        name = "my-heuristic"
        ...

after which ``SolveRequest(strategy="my-heuristic")``, the CLI, and
even the legacy :func:`repro.core.make_heuristic` all resolve it.

Unknown names raise :class:`UnknownStrategyError` (a ``KeyError``
subclass, so legacy callers catching ``KeyError`` keep working) whose
message lists the valid names *of that namespace* and a close-match
suggestion::

    unknown placement 'subtree'; did you mean 'subtree-bottom-up'?
    valid placement strategies: random, comp-greedy, ...

Built-in strategies are registered lazily on first lookup (importing
the factory modules eagerly here would create import cycles with
``repro.core`` and ``repro.dynamic``).
"""

from __future__ import annotations

import threading
from typing import Callable

__all__ = [
    "NAMESPACES",
    "UnknownStrategyError",
    "default_server_for",
    "make",
    "names",
    "parse",
    "register",
    "resolve",
    "set_server_pairing",
]

#: The six strategy kinds of the allocation service.
NAMESPACES: tuple[str, ...] = (
    "placement", "server", "policy", "refine", "migration", "pricing"
)

_REGISTRY: dict[str, dict[str, Callable]] = {ns: {} for ns in NAMESPACES}
#: placement name → server-selection name (the paper's §4.2 pairing);
#: placements not listed here pair with ``_DEFAULT_SERVER``.
_SERVER_PAIRING: dict[str, str] = {}
_DEFAULT_SERVER = "three-loop"

_bootstrap_lock = threading.Lock()
_bootstrapped = False


class UnknownStrategyError(KeyError):
    """An unregistered strategy name was looked up.

    Subclasses ``KeyError`` for compatibility with callers of the three
    legacy registries, but renders its message without the quoting
    ``KeyError.__str__`` applies.
    """

    def __init__(self, namespace: str, name: str, known: tuple[str, ...]):
        from ..errors import did_you_mean

        self.namespace = namespace
        self.name = name
        self.known = tuple(known)
        hint = did_you_mean(name, known)
        message = (
            f"unknown {namespace} {name!r}{hint} (valid {namespace}"
            f" strategies: {', '.join(known)})"
        )
        super().__init__(message)
        self.message = message

    def __str__(self) -> str:  # KeyError would repr() the message
        return self.message

    def __reduce__(self):
        # BaseException pickling replays __init__ with self.args (the
        # rendered message) — rebuild from the real arguments instead,
        # so the error survives the trip back from a pool worker
        return (type(self), (self.namespace, self.name, self.known))


def _check_namespace(namespace: str) -> None:
    if namespace not in _REGISTRY:
        raise ValueError(
            f"unknown namespace {namespace!r};"
            f" valid namespaces: {', '.join(NAMESPACES)}"
        )


def _bootstrap() -> None:
    """Register the built-in strategies of every namespace."""
    global _bootstrapped
    if _bootstrapped:
        return
    with _bootstrap_lock:
        if _bootstrapped:
            return
        from ..core.heuristics import (
            CommGreedyPlacement,
            CompGreedyPlacement,
            ObjectAvailabilityPlacement,
            ObjectGroupingPlacement,
            RandomPlacement,
            SubtreeBottomUpPlacement,
            refine_placement,
        )
        from ..core.server_selection import (
            RandomServerSelection,
            ThreeLoopServerSelection,
        )
        from ..dynamic.policies import POLICY_FACTORIES

        # the paper's figure-legend order (HEURISTIC_ORDER)
        for factory in (
            RandomPlacement,
            CompGreedyPlacement,
            CommGreedyPlacement,
            SubtreeBottomUpPlacement,
            ObjectGroupingPlacement,
            ObjectAvailabilityPlacement,
        ):
            _REGISTRY["placement"].setdefault(factory.name, factory)
        _REGISTRY["server"].setdefault(
            RandomServerSelection.name, RandomServerSelection
        )
        _REGISTRY["server"].setdefault(
            ThreeLoopServerSelection.name, ThreeLoopServerSelection
        )
        for name, factory in POLICY_FACTORIES.items():
            _REGISTRY["policy"].setdefault(name, factory)
        _REGISTRY["refine"].setdefault(
            "local-search", lambda: refine_placement
        )
        from ..dynamic.transition import MIGRATION_MODELS, MigrationCostModel

        for model_name in MIGRATION_MODELS:
            _REGISTRY["migration"].setdefault(
                model_name,
                (lambda _n: lambda **kw: MigrationCostModel(name=_n, **kw))(
                    model_name
                ),
            )
        from ..market.auction import PRICING_FACTORIES

        for name, factory in PRICING_FACTORIES.items():
            _REGISTRY["pricing"].setdefault(name, factory)
        # the paper's §4.2 pairing: Random placement → random selection.
        _SERVER_PAIRING.setdefault("random", "random")
        _bootstrapped = True


def register(namespace: str, name: str | None = None, *,
             server: str | None = None) -> Callable:
    """Class/function decorator adding a strategy factory.

    ``name`` defaults to the factory's ``name`` attribute.  For the
    ``placement`` namespace, ``server=`` optionally records the
    server-selection strategy this placement pairs with by default
    (otherwise the three-loop selection is used).

    Returns the factory unchanged, so it stacks with ``@dataclass`` and
    plain class definitions.

    Parallel execution caveat: pool workers re-resolve strategies *by
    name*, re-importing modules in the child process.  Registrations
    made at import time of an importable module are therefore visible
    in workers under every multiprocessing start method; registrations
    made dynamically (in ``__main__``, a REPL, or after import) are
    only inherited under the ``fork`` start method (the Linux
    default) — under ``spawn``/``forkserver`` the worker's registry
    will not contain them.
    """
    _check_namespace(namespace)

    if server is not None and namespace != "placement":
        raise ValueError(
            "server= pairing is only meaningful for the 'placement'"
            " namespace"
        )

    def _register(factory: Callable) -> Callable:
        strategy_name = name or getattr(factory, "name", None)
        if not isinstance(strategy_name, str) or not strategy_name:
            raise ValueError(
                f"cannot register {factory!r} in {namespace!r}: pass"
                " register(namespace, name) or give the factory a"
                " 'name' attribute"
            )
        _bootstrap()
        _REGISTRY[namespace][strategy_name] = factory
        if server is not None:
            _SERVER_PAIRING[strategy_name] = server
        return factory

    return _register


def names(namespace: str) -> tuple[str, ...]:
    """Registered strategy names of one namespace, canonical order
    (built-ins in paper/report order, extensions in registration
    order)."""
    _check_namespace(namespace)
    _bootstrap()
    return tuple(_REGISTRY[namespace])


def parse(ref: str, default_namespace: str = "placement") -> tuple[str, str]:
    """Split a strategy reference into ``(namespace, name)``.

    ``"placement:subtree-bottom-up"`` → ``("placement",
    "subtree-bottom-up")``; a bare ``"subtree-bottom-up"`` lands in
    ``default_namespace``.
    """
    if ":" in ref:
        namespace, _, name = ref.partition(":")
        _check_namespace(namespace)
        return namespace, name
    _check_namespace(default_namespace)
    return default_namespace, ref


def resolve(namespace: str, name: str) -> Callable:
    """Return the registered factory, raising the namespaced error."""
    _check_namespace(namespace)
    _bootstrap()
    try:
        return _REGISTRY[namespace][name]
    except KeyError:
        raise UnknownStrategyError(
            namespace, name, tuple(_REGISTRY[namespace])
        ) from None


def make(namespace: str, name: str, **kwargs):
    """Instantiate a strategy: ``resolve`` + call the factory.

    ``name`` may be fully qualified (``"policy:harvest"``) as long as
    its namespace prefix matches ``namespace``.
    """
    ns, bare = parse(name, namespace)
    if ns != namespace:
        raise ValueError(
            f"strategy reference {name!r} belongs to namespace {ns!r},"
            f" not {namespace!r}"
        )
    return resolve(namespace, bare)(**kwargs)


def default_server_for(placement_name: str) -> str:
    """Server-selection strategy name paired with a placement (§4.2):
    Random placement → random selection, everything else (including
    downstream registrations without an explicit pairing) → the
    three-loop strategy."""
    _bootstrap()
    return _SERVER_PAIRING.get(placement_name, _DEFAULT_SERVER)


def set_server_pairing(placement_name: str, server_name: str) -> None:
    """Override the default server selection paired with a placement."""
    _bootstrap()
    _SERVER_PAIRING[placement_name] = server_name
