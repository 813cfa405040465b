"""Process-technology parameters for the analytical SRAM model.

The paper characterizes its memories with CACTI 6.5 at the 65 nm node.  We
cannot ship CACTI, so :mod:`repro.memmodel` provides a compact analytical
substitute.  This module holds the per-node constants that substitute
feeds on: bit-cell geometry, supply voltage, per-access energy
coefficients and leakage densities.

The absolute values are calibrated against publicly reported 65 nm SRAM
figures (a 64 KB single-port SRAM macro of roughly 0.6 mm^2, tens of pJ
per 32-bit read access, access times around 1 ns) and the relative
scaling with capacity follows the usual CACTI trends (periphery grows
with the square root of the array, energy grows roughly with the square
root of capacity for a fixed word width).  The reproduction only relies
on these *relative* trends.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class TechnologyNode:
    """Constants describing one CMOS process node for SRAM estimation.

    Attributes
    ----------
    name:
        Human readable node name, e.g. ``"65nm"``.
    feature_nm:
        Drawn feature size in nanometres.
    vdd:
        Nominal supply voltage in volts.
    sram_cell_area_um2:
        Area of a 6T SRAM bit cell in square micrometres.
    array_efficiency:
        Fraction of macro area occupied by the bit-cell array (the rest is
        decoders, sense amplifiers, drivers and wiring).
    bitline_energy_fj_per_bit:
        Dynamic energy of swinging one bit line during a read, in
        femtojoules, for a 64-row sub-array; scaled with row count.
    wordline_energy_fj:
        Energy of asserting a word line across one 32-bit word, in fJ.
    decode_energy_fj:
        Energy of the row/column decoding logic per access, in fJ, for a
        reference 4 KB array; scaled logarithmically with capacity.
    leakage_uw_per_kb:
        Static leakage power density in microwatts per kilobyte of storage.
    logic_gate_area_um2:
        Area of a reference 2-input NAND gate, used to size ECC logic.
    logic_gate_energy_fj:
        Switching energy of the reference gate, used for ECC logic energy.
    logic_gate_delay_ps:
        Propagation delay of the reference gate, used for ECC latency.
    sense_delay_ps:
        Fixed sensing + output-driver delay component in picoseconds.
    wire_delay_ps_per_um:
        Wire RC delay per micrometre of array edge.
    """

    name: str
    feature_nm: float
    vdd: float
    sram_cell_area_um2: float
    array_efficiency: float
    bitline_energy_fj_per_bit: float
    wordline_energy_fj: float
    decode_energy_fj: float
    leakage_uw_per_kb: float
    logic_gate_area_um2: float
    logic_gate_energy_fj: float
    logic_gate_delay_ps: float
    sense_delay_ps: float
    wire_delay_ps_per_um: float

    def scaled(self, **overrides: float) -> "TechnologyNode":
        """Return a copy of this node with selected fields replaced.

        Convenient for sensitivity studies (e.g. pessimistic leakage).
        Every numeric field is a physical quantity, so overrides must be
        strictly positive (and ``array_efficiency`` at most 1); unknown
        field names raise :class:`KeyError`.

        Examples
        --------
        >>> NODE_65NM.scaled(leakage_uw_per_kb=3.8).leakage_uw_per_kb
        3.8
        """
        values = self.__dict__.copy()
        for key, value in overrides.items():
            if key not in values:
                raise KeyError(f"unknown technology field: {key!r}")
            if key != "name":
                value = float(value)
                if not value > 0.0:
                    raise ValueError(
                        f"technology field {key!r} must be positive, got {value!r}"
                    )
                if key == "array_efficiency" and value > 1.0:
                    raise ValueError(
                        f"array_efficiency must be in (0, 1], got {value!r}"
                    )
            values[key] = value
        return TechnologyNode(**values)


#: 65 nm node used throughout the paper's evaluation.
NODE_65NM = TechnologyNode(
    name="65nm",
    feature_nm=65.0,
    vdd=1.1,
    sram_cell_area_um2=0.525,
    array_efficiency=0.70,
    bitline_energy_fj_per_bit=18.0,
    wordline_energy_fj=55.0,
    decode_energy_fj=220.0,
    leakage_uw_per_kb=1.9,
    logic_gate_area_um2=1.6,
    logic_gate_energy_fj=0.9,
    logic_gate_delay_ps=22.0,
    sense_delay_ps=180.0,
    wire_delay_ps_per_um=0.45,
)

#: 90 nm node, provided for sensitivity studies / older platforms.
NODE_90NM = TechnologyNode(
    name="90nm",
    feature_nm=90.0,
    vdd=1.2,
    sram_cell_area_um2=1.05,
    array_efficiency=0.68,
    bitline_energy_fj_per_bit=27.0,
    wordline_energy_fj=80.0,
    decode_energy_fj=330.0,
    leakage_uw_per_kb=1.1,
    logic_gate_area_um2=3.1,
    logic_gate_energy_fj=1.5,
    logic_gate_delay_ps=32.0,
    sense_delay_ps=240.0,
    wire_delay_ps_per_um=0.55,
)

#: 45 nm node, provided for scaling studies (higher SMU sensitivity).
NODE_45NM = TechnologyNode(
    name="45nm",
    feature_nm=45.0,
    vdd=1.0,
    sram_cell_area_um2=0.299,
    array_efficiency=0.71,
    bitline_energy_fj_per_bit=12.0,
    wordline_energy_fj=38.0,
    decode_energy_fj=160.0,
    leakage_uw_per_kb=2.8,
    logic_gate_area_um2=0.95,
    logic_gate_energy_fj=0.6,
    logic_gate_delay_ps=17.0,
    sense_delay_ps=150.0,
    wire_delay_ps_per_um=0.40,
)


_NODES = {node.name: node for node in (NODE_45NM, NODE_65NM, NODE_90NM)}


def get_node(name: str) -> TechnologyNode:
    """Look up a predefined technology node by name (e.g. ``"65nm"``).

    Raises
    ------
    KeyError
        If the node name is not one of the predefined nodes.
    """
    try:
        return _NODES[name]
    except KeyError as exc:
        known = ", ".join(sorted(_NODES))
        raise KeyError(f"unknown technology node {name!r}; known nodes: {known}") from exc


def available_nodes() -> list[str]:
    """Return the names of all predefined technology nodes."""
    return sorted(_NODES)
