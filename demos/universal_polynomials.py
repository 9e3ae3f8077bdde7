"""The universal integer polynomials behind products and compositions.

P_i expresses lambda_i(xy) through the lambda-values of the factors;
P_ij expresses lambda_i(lambda_j(x)).  Both are computed exactly by
Newton's identities: lambda values to Adams values, the Adams operations
applied to the product or composite, and back through exact division.
Specializing to binomial values must reproduce C(mn, i) and
C(C(m, j), i).
"""

import math

from lambdaring.symfun import compute_P, compute_P_ij


def binomial(m: int, i: int) -> int:
    num = 1
    for k in range(i):
        num *= m - k
    return num // math.factorial(i)


def main() -> None:
    for i in (1, 2, 3):
        print(f"P_{i} =", compute_P(i).text())
    print()
    for i, j in ((1, 2), (2, 2), (3, 2), (2, 3)):
        print(f"P_{i},{j} =", compute_P_ij(i, j, 6).text())
    print()

    m, n, i = 4, -3, 3
    polynomial = compute_P(i).expression
    assignment = {("s", a): binomial(m, a) for a in range(1, i + 1)}
    assignment.update({("t", b): binomial(n, b) for b in range(1, i + 1)})
    value = polynomial.eval_int(assignment)
    print(f"P_{i} at lambda({m}); lambda({n}) = {value} = C({m * n}, {i})")
    assert value == binomial(m * n, i)

    i, j, m = 2, 2, 5
    polynomial = compute_P_ij(i, j, 6).expression
    assignment = {("s", a): binomial(m, a) for a in range(1, i * j + 1)}
    value = polynomial.eval_int(assignment)
    print(f"P_{i},{j} at lambda({m}) = {value} = C(C({m}, {j}), {i})")
    assert value == binomial(binomial(m, j), i)


if __name__ == "__main__":
    main()
