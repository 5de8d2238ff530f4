"""The factors tamekit finds for the plane corpus invert literally.

``FactorChain.inverse`` checks each factor against ``invert_factor``'s
answer through ``verify_inverse_pair``, which decides most pairs on
their coefficients.  Here every factor of a sample of criterion 1's
maps is checked by composing it with its inverse both ways instead.
"""

import corpora
from tamekit import decompose_plane, invert_factor
from test_maps import literal_inverse_pair

STEP = 10


def test_plane_corpus_factors_invert_literally():
    for _, m in corpora.criterion_1_maps(STEP):
        for f in decompose_plane(m).factors:
            assert literal_inverse_pair(f, invert_factor(f))
