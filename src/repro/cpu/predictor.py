"""Branch prediction: hybrid direction predictor, BTB, return stack.

The paper's machine has "an 8K entry hybrid branch predictor [and a]
2K-entry BTB".  We implement a gshare/bimodal hybrid with a chooser
table, a direct-mapped BTB for indirect-target prediction, and a
16-entry return-address stack.

DISE branches are *not* predicted ("Because replacement sequences are
not fetched, DISE control transfers are not predicted" — Section 3);
they never reach this predictor.  The machine charges their taken-path
flush directly.
"""

from __future__ import annotations


_COUNTER_MAX = 3  # 2-bit saturating counters
_TAKEN_THRESHOLD = 2


class BranchPredictor:
    """Hybrid (gshare + bimodal + chooser) direction predictor."""

    def __init__(self, entries: int = 8192, btb_entries: int = 2048,
                 ras_depth: int = 16):
        if entries & (entries - 1):
            raise ValueError(f"predictor entries {entries} not a power of two")
        if btb_entries & (btb_entries - 1):
            raise ValueError(f"BTB entries {btb_entries} not a power of two")
        self._mask = entries - 1
        # Weakly taken initial state keeps loop warm-up penalties small.
        self._gshare = bytearray([2] * entries)
        self._bimodal = bytearray([2] * entries)
        self._chooser = bytearray([2] * entries)  # >=2 selects gshare
        self._history = 0
        self._btb: dict[int, int] = {}
        self._btb_mask = btb_entries - 1
        self._ras: list[int] = []
        self._ras_depth = ras_depth
        self.lookups = 0
        self.mispredictions = 0

    # -- conditional branches ------------------------------------------------

    def predict_and_update(self, pc: int, taken: bool) -> bool:
        """Predict direction for the branch at ``pc``; train; return
        True when the prediction was correct.

        Runs once per simulated conditional branch, so the three 2-bit
        saturating counters train on locals, with no helper call.
        """
        self.lookups += 1
        mask = self._mask
        history = self._history
        index = (pc >> 2) & mask
        gindex = ((pc >> 2) ^ history) & mask
        gshare = self._gshare
        bimodal = self._bimodal
        g = gshare[gindex]
        b = bimodal[index]
        g_pred = g >= _TAKEN_THRESHOLD
        b_pred = b >= _TAKEN_THRESHOLD
        prediction = (g_pred if self._chooser[index] >= _TAKEN_THRESHOLD
                      else b_pred)
        if taken:
            if g < _COUNTER_MAX:
                gshare[gindex] = g + 1
            if b < _COUNTER_MAX:
                bimodal[index] = b + 1
        else:
            if g:
                gshare[gindex] = g - 1
            if b:
                bimodal[index] = b - 1
        if g_pred != b_pred:
            # The chooser moves toward whichever component was right.
            chooser = self._chooser
            c = chooser[index]
            if g_pred == taken:
                if c < _COUNTER_MAX:
                    chooser[index] = c + 1
            elif c:
                chooser[index] = c - 1
        self._history = ((history << 1) | taken) & mask
        if prediction == taken:
            return True
        self.mispredictions += 1
        return False

    # -- indirect jumps / calls / returns -----------------------------------

    def push_return(self, return_pc: int) -> None:
        """Record a call's return address on the return-address stack."""
        self._ras.append(return_pc)
        if len(self._ras) > self._ras_depth:
            self._ras.pop(0)

    def predict_return(self, actual_target: int) -> bool:
        """Pop the RAS; return True when it predicted correctly."""
        self.lookups += 1
        predicted = self._ras.pop() if self._ras else None
        correct = predicted == actual_target
        if not correct:
            self.mispredictions += 1
        return correct

    def predict_indirect(self, pc: int, actual_target: int) -> bool:
        """Predict an indirect jump through the BTB; train; report."""
        self.lookups += 1
        index = (pc >> 2) & self._btb_mask
        correct = self._btb.get(index) == actual_target
        self._btb[index] = actual_target
        if not correct:
            self.mispredictions += 1
        return correct

    def reset(self) -> None:
        """Forget all learned state and zero the counters."""
        for table in (self._gshare, self._bimodal, self._chooser):
            for i in range(len(table)):
                table[i] = 2
        self._history = 0
        self._btb.clear()
        self._ras.clear()
        self.lookups = 0
        self.mispredictions = 0

    def reset_counters(self) -> None:
        """Zero lookup/misprediction counters, keeping learned state."""
        self.lookups = 0
        self.mispredictions = 0

    def snapshot(self) -> tuple:
        """Capture tables, history, BTB, RAS, and counters."""
        return (bytes(self._gshare), bytes(self._bimodal),
                bytes(self._chooser), self._history, dict(self._btb),
                list(self._ras), self.lookups, self.mispredictions)

    def restore(self, blob: tuple) -> None:
        """Reset the predictor to a previous :meth:`snapshot`."""
        (gshare, bimodal, chooser, self._history, btb, ras,
         self.lookups, self.mispredictions) = blob
        self._gshare = bytearray(gshare)
        self._bimodal = bytearray(bimodal)
        self._chooser = bytearray(chooser)
        self._btb = dict(btb)
        self._ras = list(ras)

    @property
    def misprediction_rate(self) -> float:
        return self.mispredictions / self.lookups if self.lookups else 0.0

