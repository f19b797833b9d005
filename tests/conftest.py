import pytest

from dpsrk.detector import DetectorSpec
from dpsrk.link import LinkScenario
from dpsrk.security import AttackModel

# Reference detector/link values used throughout the unit tests (the Si and
# InGaAs operating points of the main rate-vs-distance parameter set).

SI = DetectorSpec(
    name="si",
    efficiency=0.35,
    dark_per_window=3.5e-8,
    dead_time=45e-9,
    receiver_loss_db=2.1,
)

INGAAS = DetectorSpec(
    name="ingaas",
    efficiency=0.155,
    dark_per_window=9.2e-6,
    dead_time=200e-9,
    receiver_loss_db=3.0,
)

HYBRID_NOMEM = AttackModel.HYBRID_NOMEM
HYBRID_MEM = AttackModel.HYBRID_MEM
IND_MEM = AttackModel.INDIVIDUAL_MEM
IND_NOMEM = AttackModel.INDIVIDUAL_NOMEM


def si_scenario(length_km=100.0, delay_n=100, **overrides) -> LinkScenario:
    params = dict(
        mu=0.2,
        alpha_db_per_km=0.21,
        length_km=length_km,
        clock_hz=1e9,
        baseline_error=0.01,
        detector=SI,
        delay_n=delay_n,
    )
    params.update(overrides)
    return LinkScenario(**params)


@pytest.fixture
def fig3_si():
    return si_scenario()
