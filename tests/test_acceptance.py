"""Full-size acceptance suite.

One test per entry of ``acceptance.CRITERIA``, in table order, so a
criterion added to the table runs here without a new test function.  Each
runs its criterion at scale 1.0 (the same entry points ``driftbound
validate`` uses), prints its one-line verdict, and asserts it passed.  The
test for ``criterion_<k>_<what>`` is ``test_criterion_<kk>_<what>``, with
``k`` zero-padded to two digits.  The heavy criteria take minutes each; the
whole module is the package's exit gate and is meant to run on every full
test invocation.
"""

import sys

from driftbound import acceptance


def _full_scale(criterion):
    def test():
        result = criterion(scale=1.0)
        # bypass output capture so the verdict line lands in the run log
        print(f"\n{result.line()}", file=sys.__stdout__, flush=True)
        assert result.passed, result.line()
    return test


for _key, _fn in acceptance.CRITERIA.items():
    _name = f"test_criterion_{int(_key):02d}_" + _fn.__name__.removeprefix(f"criterion_{_key}_")
    globals()[_name] = _full_scale(_fn)
