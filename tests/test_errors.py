import math

import pytest

import adialab as al
from adialab import proofcheck
from adialab.errors import DomainError
from adialab.proofcheck import ProofCheckConfig

# every count the library takes, each through its public entry point
COUNT_ENTRY_POINTS = {
    "steps": lambda v: al.EvolutionConfig(1.0, v),
    "snapshot_stride": lambda v: al.EvolutionConfig(1.0, 10, snapshot_stride=v),
    "L": lambda v: ProofCheckConfig(v, 1000.0, 0.5, 1.0, 1.0),
    "run_proofcheck L": lambda v: al.run_proofcheck(al.landau_zener(), v, 1.0, 100.0),
    "rank": lambda v: al.track_eigenpath(al.landau_zener(), 65, v),
    "step_ceiling": lambda v: al.evolve_adaptive(
        al.landau_zener(), [1.0, 0.0], 1.0, 1e-3, norm_H=1.0, step_ceiling=v
    ),
    "grid_size": lambda v: al.track_eigenpath(al.landau_zener(), v),
}


@pytest.mark.parametrize("value", [2.5, True, math.nan, "10"])
@pytest.mark.parametrize("entry", COUNT_ENTRY_POINTS)
def test_non_integer_count_is_a_domain_error(monkeypatch, entry, value):
    # refused up front: proof-check never builds its frame
    monkeypatch.setattr(proofcheck, "zero_frame", None)
    with pytest.raises(DomainError, match="must be an integer, got"):
        COUNT_ENTRY_POINTS[entry](value)
