"""Observable effects of the consistency models on the simulator.

SC and RC are applied by ``SystemConfig`` (buffer depths, the CW
refusal) and the processor (stalls); these tests run the real
simulator under each.
"""

from conftest import BLOCK, pad_streams, run_streams, tiny_config

from repro.config import Consistency


class TestObservableBehaviour:
    def _write_heavy(self, consistency):
        a = 2 * 4096
        ops = []
        for i in range(8):
            ops.append(("write", a + i * BLOCK))
            ops.append(("think", 10))
        cfg = tiny_config(consistency=consistency)
        return run_streams(cfg, pad_streams([ops], 4))

    def test_rc_eliminates_write_penalty(self):
        system = self._write_heavy(Consistency.RC)
        assert system.stats.procs[0].write_stall == 0

    def test_sc_pays_write_penalty(self):
        system = self._write_heavy(Consistency.SC)
        assert system.stats.procs[0].write_stall > 1000

    def test_sc_is_slower_on_write_heavy_code(self):
        rc = self._write_heavy(Consistency.RC)
        sc = self._write_heavy(Consistency.SC)
        assert sc.stats.execution_time > rc.stats.execution_time

    def test_reads_block_under_both_models(self):
        a = 2 * 4096
        for model in (Consistency.RC, Consistency.SC):
            cfg = tiny_config(consistency=model)
            system = run_streams(cfg, pad_streams([[("read", a)]], 4))
            assert system.stats.procs[0].read_stall > 0
