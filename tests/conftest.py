import mpmath as mp
import pytest

from chensieve.primes import build_prime_table


@pytest.fixture(scope="session")
def table_1m():
    return build_prime_table(1_000_000)


@pytest.fixture(scope="session")
def table_small():
    return build_prime_table(10_000)


@pytest.fixture(scope="session")
def c2_60():
    """c2 to 60 digits: mpmath's quadrature of the window integral, plus the
    float 1e-8 that the constant's definition adds."""
    with mp.workdps(60):
        window = mp.quad(lambda b: mp.log(2 - 3 * b) / (b * (1 - b)), [mp.mpf(1) / 8, mp.mpf(1) / 3])
        return window + mp.mpf(1e-8)
