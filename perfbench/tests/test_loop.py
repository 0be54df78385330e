"""The timing loop's two clocks, and how failures are counted."""

import time

from fxbench.workloads import Failure, closed_loop
from run import failed_ops


def test_cpu_clock_leaves_out_time_off_the_cpu():
    # A sleeping operation holds the wall clock but not the CPU, as an
    # operation does while the hypervisor runs another guest's vCPU.
    window = closed_loop(lambda _: time.sleep(0.05), range(3))
    assert all(window.wall >= 0.05)
    assert all(window.cpu < 0.02)


def test_an_exception_is_an_output_not_an_abort():
    def op(i):
        if i == 1:
            raise ValueError("refused")
        return i

    window = closed_loop(op, range(3))
    assert window.outputs[0] == 0 and window.outputs[2] == 2
    assert isinstance(window.outputs[1], ValueError)


def test_failed_ops_counts_operations_not_messages():
    failures = [
        Failure(3, "unusable config"),
        Failure(3, "repeat mismatch"),
        Failure(None, "accounting mismatch"),
        Failure(5, "bound exceeded"),
    ]
    assert failed_ops(failures) == 2
