import pytest

from epitrace.authority import LocationStore


@pytest.fixture
def density_builds(monkeypatch):
    """A list that gains one entry per LocationStore.build_density_map call."""
    builds = []
    build = LocationStore.build_density_map

    def counting_build(store, *args, **kwargs):
        builds.append(1)
        return build(store, *args, **kwargs)

    monkeypatch.setattr(LocationStore, "build_density_map", counting_build)
    return builds
