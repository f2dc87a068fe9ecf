"""Calibrated silicon-area model (Section 5 of the paper).

The paper reports synthesis results in a 0.13 um technology:

* NI kernel (8-slot STU, 4 ports with 1/1/2/4 channels, 8-word 32-bit
  queues): 0.11 mm^2;
* narrowcast shell 0.004 mm^2 (4% of the kernel), multi-connection shell
  0.007 mm^2 (6%), DTL master shell 0.005 mm^2 (5%), DTL slave shell
  0.002 mm^2 (2%), configuration shell 0.01 mm^2;
* example 4-port NI total: 0.11 + 0.01 + 2*0.005 + 0.004 + 0.002 + 0.007 =
  0.143 mm^2.

Since we cannot synthesize silicon here, the model decomposes the kernel area
into per-queue-word, per-channel, per-port, per-slot and fixed contributions,
with coefficients calibrated so the paper's reference instance reproduces the
published figures exactly; other instances scale accordingly (the dominant
term is the custom hardware FIFOs, as the paper notes).  The model therefore
matches the paper on the reference instance by construction; it does not
validate the published figures.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.design.spec import NISpec, reference_ni_spec

#: Published reference figures (mm^2, 0.13 um technology).
REFERENCE_KERNEL_AREA_MM2 = 0.110
REFERENCE_TOTAL_AREA_MM2 = 0.143
REFERENCE_FREQUENCY_MHZ = 500.0

#: Published shell areas (mm^2).
SHELL_AREAS_MM2: Dict[str, float] = {
    "narrowcast": 0.004,
    "multiconnection": 0.007,
    "dtl_master": 0.005,
    "dtl_slave": 0.002,
    "config": 0.010,
    # Not reported by the paper; conservative extrapolations used for
    # instances that request them.
    "multicast": 0.005,
    "axi_master": 0.006,
    "axi_slave": 0.003,
    "p2p": 0.000,
}

#: Calibrated kernel coefficients (mm^2).  With the reference instance
#: (8 channels, 16 queues x 8 words = 128 queue words, 4 ports, 8 slots) they
#: sum to exactly 0.110 mm^2:
#:   128*0.0005 + 8*0.003 + 4*0.002 + 8*0.0005 + 0.010 = 0.110
KERNEL_AREA_PER_QUEUE_WORD = 0.0005
KERNEL_AREA_PER_CHANNEL = 0.003
KERNEL_AREA_PER_PORT = 0.002
KERNEL_AREA_PER_SLOT = 0.0005
KERNEL_AREA_BASE = 0.010


@dataclass
class AreaReport:
    """Per-component area breakdown of one NI instance."""

    kernel_mm2: float
    shells_mm2: Dict[str, float] = field(default_factory=dict)

    @property
    def shells_total_mm2(self) -> float:
        return sum(self.shells_mm2.values())

    @property
    def total_mm2(self) -> float:
        return self.kernel_mm2 + self.shells_total_mm2

    def shell_fraction_of_kernel(self, shell: str) -> float:
        return self.shells_mm2[shell] / self.kernel_mm2

    def rows(self) -> list:
        """Printable rows: (component, area mm^2, % of kernel)."""
        out = [("NI kernel", self.kernel_mm2, 100.0)]
        for name, area in self.shells_mm2.items():
            out.append((name, area, 100.0 * area / self.kernel_mm2))
        out.append(("total", self.total_mm2,
                    100.0 * self.total_mm2 / self.kernel_mm2))
        return out


class AreaModel:
    """Area estimation calibrated against the paper's 0.13 um prototype."""

    def __init__(self, technology_nm: float = 130.0) -> None:
        if technology_nm <= 0:
            raise ValueError("technology node must be positive")
        self.technology_nm = technology_nm
        #: First-order constant-field scaling of area with the technology node.
        self.scale = (technology_nm / 130.0) ** 2

    # ----------------------------------------------------------------- kernel
    def kernel_area(self, num_channels: int, queue_words: int, num_ports: int,
                    num_slots: int) -> float:
        """Kernel area in mm^2 from the instance parameters."""
        area = (queue_words * KERNEL_AREA_PER_QUEUE_WORD
                + num_channels * KERNEL_AREA_PER_CHANNEL
                + num_ports * KERNEL_AREA_PER_PORT
                + num_slots * KERNEL_AREA_PER_SLOT
                + KERNEL_AREA_BASE)
        return area * self.scale

    def shell_area(self, shell: str) -> float:
        try:
            return SHELL_AREAS_MM2[shell] * self.scale
        except KeyError as exc:
            raise ValueError(f"unknown shell {shell!r}") from exc

    # -------------------------------------------------------------- instances
    def ni_area(self, spec: NISpec) -> AreaReport:
        """Area report of one NI instance described by ``spec``."""
        kernel = self.kernel_area(num_channels=spec.num_channels,
                                  queue_words=spec.queue_words_total(),
                                  num_ports=spec.num_ports,
                                  num_slots=spec.num_slots)
        shells: Dict[str, float] = {}
        for port in spec.ports:
            # Protocol adapter shell of the port.
            if port.kind == "master":
                adapter = f"{port.protocol}_master"
            elif port.kind == "slave":
                adapter = f"{port.protocol}_slave"
            else:
                adapter = None
            if adapter is not None:
                shells[f"{port.name}:{adapter}"] = self.shell_area(adapter)
            # Connection-type / configuration shell of the port.
            if port.shell and port.shell != "p2p":
                shells[f"{port.name}:{port.shell}"] = self.shell_area(port.shell)
        return AreaReport(kernel_mm2=kernel, shells_mm2=shells)

    def reference_report(self) -> AreaReport:
        """The paper's example 4-port NI (E1 reproduces this table)."""
        return self.ni_area(reference_ni_spec())

    def paper_comparison(self) -> Dict[str, Dict[str, Optional[float]]]:
        """Model versus published numbers for every reported component."""
        report = self.reference_report()
        published = {
            "kernel": REFERENCE_KERNEL_AREA_MM2,
            "narrowcast": SHELL_AREAS_MM2["narrowcast"],
            "multiconnection": SHELL_AREAS_MM2["multiconnection"],
            "dtl_master": SHELL_AREAS_MM2["dtl_master"],
            "dtl_slave": SHELL_AREAS_MM2["dtl_slave"],
            "config": SHELL_AREAS_MM2["config"],
            "total": REFERENCE_TOTAL_AREA_MM2,
        }
        modeled = {
            "kernel": report.kernel_mm2,
            "narrowcast": self.shell_area("narrowcast"),
            "multiconnection": self.shell_area("multiconnection"),
            "dtl_master": self.shell_area("dtl_master"),
            "dtl_slave": self.shell_area("dtl_slave"),
            "config": self.shell_area("config"),
            "total": report.total_mm2,
        }
        return {key: {"paper_mm2": published[key], "model_mm2": modeled[key]}
                for key in published}
