import numpy as np

from dqc1.linalg import as_complex_matrix
from dqc1.pathsum import GateCircuit


def haar_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary via QR of a Ginibre matrix."""
    z = (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))) / np.sqrt(2)
    q, r = np.linalg.qr(z)
    d = np.diag(r)
    return q * (d / np.abs(d))


def random_density(dim: int, rng: np.random.Generator) -> np.ndarray:
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def save_unitary(path, u: np.ndarray) -> None:
    """Write a matrix in the plain-text format read by ``dqc1.linalg.load_unitary``."""
    u = as_complex_matrix(u)
    with open(path, "w") as fh:
        fh.write(f"{u.shape[0]}\n")
        for row in u:
            fh.write(" ".join(f"{z.real:.17g},{z.imag:.17g}" for z in row) + "\n")


def format_circuit(c: GateCircuit) -> str:
    """The circuit in the one-gate-per-line format read by ``dqc1.pathsum.parse_circuit``."""
    lines = [f"qubits {c.n}"]
    lines += [" ".join([g.name, *map(str, g.qubits)]) for g in c.gates]
    return "\n".join(lines) + "\n"


def save_circuit(path, c: GateCircuit) -> None:
    with open(path, "w") as fh:
        fh.write(format_circuit(c))
