"""Whether 2 cos(m y) has the bits of 2 Re(e^{i m y}) under this numpy.

The periodic mode sum (``solutions._mode_sums``) builds its fiber table with
a complex exp; a real cos is about three times cheaper, but may take another
SIMD path than exp on some numpy versions, and a swap must keep every golden
artifact.  This prints one line for a seeded (8, 20,000) table, compared as
int64 views so that the signs of zeros count too: a report, not a gate.

    python .github/fiber-table-bits.py >> "$GITHUB_STEP_SUMMARY"
"""

import numpy as np

m = np.arange(1, 9, dtype=float)[:, None]
y = np.random.default_rng(0).uniform(0.0, 2.0 * np.pi, 20000)
by_exp = (2.0 * np.exp(1j * m * y).real).view(np.int64)
by_cos = (2.0 * np.cos(m * y)).view(np.int64)
differ = int(np.count_nonzero(by_exp != by_cos))
print(f"numpy {np.__version__}: 2 cos(m y) against 2 Re exp(i m y) on an "
      f"(8, 20,000) table: {'bit-equal' if not differ else 'not bit-equal'}"
      f" ({differ} of {by_exp.size} entries differ)")
