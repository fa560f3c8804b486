"""Top-level composition: one simulated GPM platform.

:class:`System` wires the machine substrate to the GPU engine and the host
software stack.  It is the object applications hold; everything else hangs
off it (``system.gpu``, ``system.cpu``, ``system.fs``, ``system.machine``).
"""

from __future__ import annotations

from .gpu.device import Gpu
from .host.cpu import Cpu
from .host.dma import DmaEngine
from .host.filesystem import DaxFilesystem
from .sim.config import DEFAULT_CONFIG, SystemConfig
from .sim.machine import Machine


class System:
    """A Xeon + Optane + GPU platform ready to run workloads.

    Parameters
    ----------
    config:
        Hardware constants; defaults model the paper's Table 3 testbed.
    persistency:
        The machine's :class:`~repro.sim.persistency.PersistencyModel` - a
        registered model name (``"strict"``, ``"eadr"``, ``"epoch"``,
        ``"relaxed"``, ``"adaptive"``), a model instance, or ``None`` for
        the default (``strict``).  ``"eadr"`` models the projected eADR
        platform of Section 6.1, where the LLC joins the persistence domain
        so persistence no longer requires flushing or disabling DDIO.
    """

    def __init__(self, config: SystemConfig = DEFAULT_CONFIG,
                 persistency=None) -> None:
        self.machine = Machine(config, persistency=persistency)
        self.gpu = Gpu(self.machine)
        self.cpu = Cpu(self.machine)
        self.fs = DaxFilesystem(self.machine)
        self.dma = DmaEngine(self.machine)

    @property
    def config(self) -> SystemConfig:
        return self.machine.config

    @property
    def clock(self):
        return self.machine.clock

    @property
    def stats(self):
        return self.machine.stats

    @property
    def events(self):
        """The machine's hardware event bus (see :mod:`repro.sim.events`)."""
        return self.machine.events

    @property
    def eadr(self) -> bool:
        return self.machine.eadr

    @property
    def persistency(self):
        """The machine's persistency model (see :mod:`repro.sim.persistency`)."""
        return self.machine.persistency

    def crash(self) -> None:
        """Power-fail the whole platform (volatile state is lost)."""
        self.machine.crash()
