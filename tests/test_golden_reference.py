"""Byte-identity contract on the reference fixture, through the library API.

The README golden (`test_golden.py`) runs on auto-generated gamma-CGs whose
node ids already read `c<i>`/`r<j>` and which carry one concept variable
each. The reference gamma-CGs use `n<i>`/`e<j>` ids and two concept
variables, so generation really renames every node and specialises two
concept labels per draw. `max_spe` 0 pins the RNG draw made per type slot
even when no step can be taken.

The digests may only change in a change that sets out to alter the output
and says so in CHANGES.md.
"""

import pytest

from cggen import GeneratorConfig, formats, generate_dataset
from cggen.metrics import compute_stats
from test_golden import tree_digest

GOLDEN_FILES = 111
GOLDEN_SHA256 = {
    0: "eb0147cb886f87e74713c2f4290c87e32a5efdbfa861462b0e8799a1fd53fffe",
    3: "a3176871805c98183f54fa0e2381e2dedcab3614ecab8e98e53549bf500404f6",
}


@pytest.mark.parametrize("max_spe", sorted(GOLDEN_SHA256))
def test_reference_fixture_digest_is_pinned(tmp_path, reference_fixture, max_spe):
    vocab, gammas, config = reference_fixture
    config = GeneratorConfig(config.max_cgs, config.min_size, max_spe=max_spe, seed=config.seed)
    result = generate_dataset(vocab, gammas, config)
    formats.save_result(tmp_path, result, gammas)
    formats.save_dataset(
        tmp_path / formats.DATASET_DIR,
        result.graphs,
        config=config,
        provenances=result.provenances,
        stats=compute_stats(result.graphs),
    )
    assert tree_digest(tmp_path) == (GOLDEN_FILES, GOLDEN_SHA256[max_spe])
