"""The reference c-form expansion for the tests: a double loop over rows of
the signed Pascal triangle.

``poly.expand_c_form`` reads the coefficients back from one packed integer;
this sums c_k times the row of (1-p)^(n-k), shifted by k, term by term, so
agreement between the two checks the packing's digit width.
"""

from relshape.poly import one_minus_p_power


def expand_c_form_reference(c, n):
    """Power-basis coefficients of sum_k c[k] p^k (1-p)^(n-k)."""
    out = [0] * (n + 1)
    for k, ck in enumerate(c):
        if ck == 0:
            continue
        for j, b in enumerate(one_minus_p_power(n - k)):
            out[k + j] += ck * b
    return out
