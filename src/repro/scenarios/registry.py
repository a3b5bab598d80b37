"""Scenario registration and discovery.

Scenarios register under a unique name, either with the
:func:`register_scenario` decorator::

    @register_scenario
    class FrontierOutpost(Scenario):
        name = "frontier-outpost"
        ...

or, for third-party packages, through a ``repro.scenarios`` entry point
(see ``pyproject.toml`` for how the built-ins declare theirs)::

    [project.entry-points."repro.scenarios"]
    frontier-outpost = "my_pkg.worlds:FrontierOutpost"

Entry points are resolved lazily on the first lookup miss, so importing
:mod:`repro` never pays the cost of scanning installed distributions.
"""

from __future__ import annotations

from typing import Callable, Iterable, Type

from ..errors import ScenarioError
from .base import Scenario

#: Entry-point group scanned for third-party scenarios.
ENTRY_POINT_GROUP = "repro.scenarios"


class ScenarioRegistry:
    """Name -> :class:`Scenario` singleton map with entry-point discovery."""

    def __init__(self) -> None:
        self._scenarios: dict[str, Scenario] = {}
        self._discovered = False

    # -- registration -------------------------------------------------------

    def register(self, scenario_cls: Type[Scenario]) -> Type[Scenario]:
        """Instantiate and register a scenario class; returns the class.

        Raises :class:`ScenarioError` if the name is empty or taken (two
        plugins claiming one name is a packaging bug worth failing on).
        """
        scenario = scenario_cls()
        if not scenario.name:
            raise ScenarioError(
                f"{scenario_cls.__name__} has an empty scenario name")
        if scenario.name in self._scenarios:
            raise ScenarioError(
                f"scenario {scenario.name!r} is already registered "
                f"(by {type(self._scenarios[scenario.name]).__name__})")
        self._scenarios[scenario.name] = scenario
        return scenario_cls

    # -- lookup -------------------------------------------------------------

    def get(self, name: str) -> Scenario:
        """The scenario registered under ``name``.

        Unknown names trigger one entry-point discovery pass before
        failing with the list of known scenarios.
        """
        scenario = self._scenarios.get(name)
        if scenario is None and not self._discovered:
            self.discover()
            scenario = self._scenarios.get(name)
        if scenario is None:
            raise ScenarioError(
                f"unknown scenario {name!r}; registered: {self.names()}")
        return scenario

    def names(self) -> list[str]:
        """Sorted names of every registered scenario.

        Runs entry-point discovery first (once), so installed plugin
        scenarios appear in CLI choices, the smoke gate, and listings.
        """
        if not self._discovered:
            self.discover()
        return sorted(self._scenarios)

    def __contains__(self, name: str) -> bool:
        return name in self._scenarios

    def __iter__(self) -> Iterable[Scenario]:
        return iter(self._scenarios.values())

    # -- entry-point discovery ----------------------------------------------

    def discover(self, group: str = ENTRY_POINT_GROUP) -> list[str]:
        """Load scenarios advertised via entry points; returns new names.

        Names already registered in-process (the built-ins import before
        any lookup) are skipped, so an installed distribution advertising
        the built-ins does not trip the duplicate check.
        """
        self._discovered = True
        try:
            from importlib.metadata import entry_points
        except ImportError:  # pragma: no cover - py3.10+ always has it
            return []
        loaded: list[str] = []
        try:
            found = entry_points(group=group)
        except Exception:  # pragma: no cover - broken metadata on host
            return []
        for ep in found:
            if ep.name in self._scenarios:
                continue
            try:
                obj = ep.load()
            except Exception:  # a broken plugin must not break the host
                continue
            scenario = obj() if isinstance(obj, type) else obj
            if not isinstance(scenario, Scenario):
                continue
            if scenario.name in self._scenarios:
                continue
            self._scenarios[scenario.name] = scenario
            loaded.append(scenario.name)
        return loaded


#: The process-wide registry all drivers consult.
REGISTRY = ScenarioRegistry()

#: Decorator registering a scenario class with :data:`REGISTRY`.
register_scenario: Callable[[Type[Scenario]], Type[Scenario]] = \
    REGISTRY.register


def get_scenario(scenario: str | Scenario) -> Scenario:
    """Resolve a scenario name (or pass a scenario instance through)."""
    if isinstance(scenario, Scenario):
        return scenario
    return REGISTRY.get(scenario)


def scenario_names() -> list[str]:
    """Names of every registered scenario (built-ins plus plugins)."""
    return REGISTRY.names()
