"""tests/differential.py stays runnable: each layer on small counts."""

import pytest

import differential

# every count constant of the script, small; the seed stays as it is
SMALL = {"SEIFERT": 50, "PAIRS": 50, "BORROMEAN": 50, "BRIESKORN": 3, "PRESENTATIONS": 30,
         "FRONTS": 8, "SCALARS": 100}


def test_the_small_counts_name_every_count_of_the_script():
    counts = {n for n, v in vars(differential).items() if n.isupper() and type(v) is int}
    assert counts - {"SEED"} == SMALL.keys()


@pytest.mark.parametrize("layer", differential.LAYERS)
def test_each_layer_digests_the_same_records_twice(monkeypatch, layer):
    for name, count in SMALL.items():
        monkeypatch.setattr(differential, name, count)
    records = differential.LAYERS[layer]
    (first, count), again = differential.digest(records()), differential.digest(records())
    assert (first, count) == again and count > 0
