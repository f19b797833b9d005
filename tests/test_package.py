import dpsrk


def test_every_public_name_resolves():
    # getattr also reaches the sampler's names, which are served on first use
    assert set(dpsrk._MONTECARLO_NAMES) <= set(dpsrk.__all__)
    for name in dpsrk.__all__:
        getattr(dpsrk, name)
