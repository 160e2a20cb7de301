"""Tests of the benchmark's percentile code (run by `dune runtest`)."""

import random
import unittest

import stats


class PercentileTest(unittest.TestCase):
    def test_nearest_rank_fixed_vector(self):
        xs = [35, 20, 15, 50, 40]
        expected = {5: 15, 20: 15, 30: 20, 40: 20, 50: 35, 75: 40, 80: 40, 90: 50, 100: 50}
        for p, want in expected.items():
            self.assertEqual(stats.percentile(xs, p), want, "p%s" % p)

    def test_exact_rank_arithmetic(self):
        # 0.9 * 10 is 9.000000000000002 in floating point; the rank is 9.
        self.assertEqual(stats.rank(90, 10), 9)
        self.assertEqual(stats.rank(50, 7), 4)
        self.assertEqual(stats.rank(99, 100), 99)

    def test_never_exceeds_max(self):
        rng = random.Random(7)
        for _ in range(300):
            xs = [rng.expovariate(1.0) for _ in range(rng.randint(1, 60))]
            for p in (0.1, 1, 50, 75, 90, 95, 99, 99.9, 100):
                v = stats.percentile(xs, p)
                self.assertLessEqual(v, max(xs))
                self.assertIn(v, xs)

    def test_tail_keeps_ten_samples_beyond(self):
        self.assertEqual(stats.tail(list(range(112)))[0], 90)
        self.assertEqual(stats.tail(list(range(40)))[0], 75)
        self.assertEqual(stats.tail(list(range(200)))[0], 95)
        self.assertEqual(stats.tail(list(range(5)))[0], 50)
        for n in range(1, 400):
            p, _ = stats.tail(list(range(n)))
            if p != 50:
                self.assertGreaterEqual(n - stats.rank(p, n), stats.TAIL_MIN_BEYOND)

    def test_rejects_empty_and_out_of_range(self):
        with self.assertRaises(ValueError):
            stats.percentile([], 50)
        with self.assertRaises(ValueError):
            stats.percentile([1], 0)
        with self.assertRaises(ValueError):
            stats.percentile([1], 101)


if __name__ == "__main__":
    unittest.main()
