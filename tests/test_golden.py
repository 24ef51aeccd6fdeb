"""What training computes, pinned: a tiny float64 run against its golden file.

A change that only reorders a float64 sum moves these numbers by about
1e-15 and passes; a change of meaning (the dropout stream, frame
sampling, the parameter draw, the loss, Adam) fails. See
`golden_tiny_f64.py` for the run and how to regenerate the file.
"""

import numpy as np

import golden_tiny_f64


def test_tiny_float64_training_matches_the_golden_run():
    got = golden_tiny_f64.run()
    with np.load(golden_tiny_f64.GOLDEN) as stored:
        want = {name: stored[name] for name in stored.files}
    assert sorted(got) == sorted(want)
    for name, expected in want.items():
        np.testing.assert_allclose(got[name], expected, rtol=1e-9, atol=0.0, err_msg=name)
