// Tests for the hypervector algebra (src/hdc/hypervector.*): the MAP
// operators of Sec. 2 and the similarity metrics of Eq. 1.

#include "hdc/hypervector.hpp"

#include <gtest/gtest.h>

#include <sstream>

using hdlock::ContractViolation;
using hdlock::FormatError;
using hdlock::hdc::BinaryHV;
using hdlock::hdc::IntHV;
using hdlock::util::BinaryReader;
using hdlock::util::BinaryWriter;
using hdlock::util::Xoshiro256ss;

namespace {

BinaryHV random_hv(std::size_t dim, std::uint64_t seed) {
    Xoshiro256ss rng(seed);
    return BinaryHV::random(dim, rng);
}

}  // namespace

TEST(BinaryHV, DefaultConstructedIsEmpty) {
    BinaryHV hv;
    EXPECT_TRUE(hv.empty());
    EXPECT_EQ(hv.dim(), 0u);
}

TEST(BinaryHV, ZeroInitializedIsAllPlusOne) {
    BinaryHV hv(100);
    for (std::size_t i = 0; i < 100; ++i) EXPECT_EQ(hv.get(i), 1);
}

TEST(BinaryHV, GetSetRoundTrip) {
    BinaryHV hv(65);
    hv.set(0, -1);
    hv.set(64, -1);
    EXPECT_EQ(hv.get(0), -1);
    EXPECT_EQ(hv.get(1), 1);
    EXPECT_EQ(hv.get(64), -1);
    hv.set(0, 1);
    EXPECT_EQ(hv.get(0), 1);
    EXPECT_THROW(hv.set(0, 0), ContractViolation);
    EXPECT_THROW(hv.set(65, 1), ContractViolation);
    EXPECT_THROW(hv.get(65), ContractViolation);
}

TEST(BinaryHV, RandomPairsAreQuasiOrthogonal) {
    // Eq. 1a: independent random hypervectors sit at normalized Hamming
    // distance ~0.5.  At D = 10000 the standard deviation is 0.005, so
    // +-0.03 is a six-sigma band.
    const std::size_t dim = 10000;
    for (std::uint64_t seed = 0; seed < 5; ++seed) {
        const auto a = random_hv(dim, 2 * seed);
        const auto b = random_hv(dim, 2 * seed + 1);
        EXPECT_NEAR(a.normalized_hamming(b), 0.5, 0.03);
    }
}

TEST(BinaryHV, MultiplySelfGivesIdentity) {
    const auto a = random_hv(1000, 3);
    const BinaryHV identity = a * a;
    for (std::size_t i = 0; i < 1000; ++i) EXPECT_EQ(identity.get(i), 1);
}

TEST(BinaryHV, MultiplyIsElementwiseBipolarProduct) {
    const auto a = random_hv(200, 4);
    const auto b = random_hv(200, 5);
    const BinaryHV c = a * b;
    for (std::size_t i = 0; i < 200; ++i) EXPECT_EQ(c.get(i), a.get(i) * b.get(i));
}

TEST(BinaryHV, MultiplyCommutesAndAssociates) {
    const auto a = random_hv(333, 6);
    const auto b = random_hv(333, 7);
    const auto c = random_hv(333, 8);
    EXPECT_EQ(a * b, b * a);
    EXPECT_EQ((a * b) * c, a * (b * c));
}

TEST(BinaryHV, MultiplyInPlaceMatches) {
    const auto a = random_hv(150, 9);
    const auto b = random_hv(150, 10);
    BinaryHV c = a;
    c *= b;
    EXPECT_EQ(c, a * b);
}

TEST(BinaryHV, BindPreservesDistances) {
    // Binding with a common hypervector is an isometry for Hamming distance —
    // the property that makes ValHV x FeaHV products analyzable in the attack.
    const auto a = random_hv(2000, 11);
    const auto b = random_hv(2000, 12);
    const auto c = random_hv(2000, 13);
    EXPECT_EQ((a * c).hamming(b * c), a.hamming(b));
}

TEST(BinaryHV, MultiplyDimensionMismatchThrows) {
    const auto a = random_hv(100, 14);
    const auto b = random_hv(101, 15);
    EXPECT_THROW(a * b, ContractViolation);
}

TEST(BinaryHV, RotatedMatchesIndexDefinition) {
    const auto a = random_hv(1000, 16);
    const BinaryHV r = a.rotated(17);
    for (std::size_t i = 0; i < 1000; ++i) EXPECT_EQ(r.get(i), a.get((i + 17) % 1000));
}

TEST(BinaryHV, RotationByDimIsIdentity) {
    const auto a = random_hv(777, 17);
    EXPECT_EQ(a.rotated(777), a);
    EXPECT_EQ(a.rotated(0), a);
    EXPECT_EQ(a.rotated(777 * 3 + 5), a.rotated(5));
}

TEST(BinaryHV, RotationDistributesOverMultiplication) {
    // rho_k(a x b) == rho_k(a) x rho_k(b): the algebraic fact behind
    // HDLock's Eq. 9 products of permuted bases.
    const auto a = random_hv(512, 18);
    const auto b = random_hv(512, 19);
    EXPECT_EQ((a * b).rotated(100), a.rotated(100) * b.rotated(100));
}

TEST(BinaryHV, DotAndCosineRelations) {
    const auto a = random_hv(1000, 20);
    const auto b = random_hv(1000, 21);
    EXPECT_EQ(a.dot(b), 1000 - 2 * static_cast<std::int64_t>(a.hamming(b)));
    EXPECT_DOUBLE_EQ(a.cosine(a), 1.0);
    EXPECT_EQ(a.hamming(a), 0u);
    const auto dim = static_cast<double>(a.dim());
    EXPECT_NEAR(a.cosine(b), 1.0 - 2.0 * a.normalized_hamming(b), 1.0 / dim);
}

TEST(BinaryHV, LoadRejectsDirtyTail) {
    std::stringstream stream;
    BinaryWriter writer(stream);
    writer.write_tag("BHV1");
    writer.write_u64(10);  // 10 bits -> one word, tail must be clean
    const std::vector<std::uint64_t> words = {~0ull};
    writer.write_span(std::span<const std::uint64_t>(words));
    BinaryReader reader(stream);
    EXPECT_THROW(BinaryHV::load_v1(reader), FormatError);
}

TEST(BinaryHV, LoadRejectsWordCountMismatch) {
    std::stringstream stream;
    BinaryWriter writer(stream);
    writer.write_tag("BHV1");
    writer.write_u64(128);
    const std::vector<std::uint64_t> words = {0};  // needs two words
    writer.write_span(std::span<const std::uint64_t>(words));
    BinaryReader reader(stream);
    EXPECT_THROW(BinaryHV::load_v1(reader), FormatError);
}

// ---------------------------------------------------------------------------
// IntHV
// ---------------------------------------------------------------------------

TEST(IntHV, AddSubBinary) {
    const auto a = random_hv(300, 30);
    const auto b = random_hv(300, 31);
    IntHV sum(300);
    sum.add(a);
    sum.add(b);
    for (std::size_t i = 0; i < 300; ++i) EXPECT_EQ(sum[i], a.get(i) + b.get(i));
    sum.sub(b);
    for (std::size_t i = 0; i < 300; ++i) EXPECT_EQ(sum[i], a.get(i));
}

TEST(IntHV, FromBinaryLift) {
    const auto a = random_hv(100, 32);
    const IntHV lifted = IntHV::from_binary(a);
    for (std::size_t i = 0; i < 100; ++i) EXPECT_EQ(lifted[i], a.get(i));
}

TEST(IntHV, ArithmeticOperators) {
    IntHV a(std::vector<std::int32_t>{1, -2, 3});
    IntHV b(std::vector<std::int32_t>{4, 5, -6});
    const IntHV sum = a + b;
    const IntHV diff = a - b;
    EXPECT_EQ(sum.values()[0], 5);
    EXPECT_EQ(sum.values()[1], 3);
    EXPECT_EQ(sum.values()[2], -3);
    EXPECT_EQ(diff.values()[0], -3);
    EXPECT_EQ(diff.values()[1], -7);
    EXPECT_EQ(diff.values()[2], 9);
}

TEST(IntHV, SignWithoutZerosIsDeterministic) {
    IntHV v(std::vector<std::int32_t>{5, -3, 1, -1, 100});
    Xoshiro256ss rng1(1), rng2(999);
    const BinaryHV s1 = v.sign(rng1);
    const BinaryHV s2 = v.sign(rng2);
    EXPECT_EQ(s1, s2);  // no ties -> tie RNG must not matter
    EXPECT_EQ(s1.get(0), 1);
    EXPECT_EQ(s1.get(1), -1);
    EXPECT_EQ(s1.get(2), 1);
    EXPECT_EQ(s1.get(3), -1);
    EXPECT_EQ(s1.get(4), 1);
}

TEST(IntHV, SignBreaksTiesRandomly) {
    // The paper's Eq. 3: sign(0) is randomly assigned. Over many zero
    // entries, both signs must appear with roughly equal frequency.
    IntHV zeros(10000);
    EXPECT_EQ(zeros.zero_count(), 10000u);
    Xoshiro256ss rng(77);
    const BinaryHV s = zeros.sign(rng);
    std::size_t plus = 0;
    for (std::size_t i = 0; i < 10000; ++i) plus += s.get(i) == 1 ? 1u : 0u;
    EXPECT_NEAR(static_cast<double>(plus) / 10000.0, 0.5, 0.03);
}

TEST(IntHV, ZeroCount) {
    IntHV v(std::vector<std::int32_t>{0, 1, 0, -2, 0});
    EXPECT_EQ(v.zero_count(), 3u);
}

TEST(IntHV, DotAndNorm) {
    IntHV a(std::vector<std::int32_t>{3, 4});
    IntHV b(std::vector<std::int32_t>{4, -3});
    EXPECT_EQ(a.dot(b), 0);
    EXPECT_DOUBLE_EQ(a.norm(), 5.0);
    EXPECT_DOUBLE_EQ(a.cosine(b), 0.0);
    EXPECT_DOUBLE_EQ(a.cosine(a), 1.0);
}

TEST(IntHV, CosineOfZeroVectorIsZero) {
    IntHV zero(10);
    IntHV other(std::vector<std::int32_t>(10, 1));
    EXPECT_DOUBLE_EQ(zero.cosine(other), 0.0);
}

TEST(IntHV, DotWithBinary) {
    const auto b = random_hv(500, 33);
    IntHV v(500);
    v.add(b);
    v.add(b);
    EXPECT_EQ(v.dot(b), 1000);  // every element contributes 2 * (+-1)^2
    EXPECT_NEAR(v.cosine(b), 1.0, 1e-12);
}

TEST(IntHV, MismatchedDimensionsThrow) {
    IntHV a(10);
    IntHV b(11);
    const auto hv = random_hv(12, 34);
    EXPECT_THROW(a.add(b), ContractViolation);
    EXPECT_THROW(a.dot(b), ContractViolation);
    EXPECT_THROW(a.add(hv), ContractViolation);
    EXPECT_THROW(a.dot(hv), ContractViolation);
}
