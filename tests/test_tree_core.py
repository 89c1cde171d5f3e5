import pytest

from treeshift import lattice_size
from treeshift.errors import Overflow


class TestLatticeSize:
    def test_values(self):
        assert lattice_size(2, 4) == 31
        assert lattice_size(3, 2) == 13
        assert lattice_size(2, 0) == 1

    def test_overflow_guard(self):
        with pytest.raises(Overflow):
            lattice_size(2, 64)
