/**
 * @file
 * RV32IM result semantics, defined once.
 *
 * The interpreter (Hart::executeDecoded) and the DBT handlers
 * (Hart::runDbt) both expand the X-macro tables below, and the DBT
 * opcode enum is generated from them too, so an ALU, M-extension,
 * load-extension, branch-condition or jalr-target result cannot drift
 * between the two executors. Each table row names the instruction
 * exactly as its Mnemonic and DbtOpcode enumerators do (without the k
 * prefix).
 */

#ifndef FS_RISCV_SEMANTICS_H_
#define FS_RISCV_SEMANTICS_H_

#include <cstdint>

/**
 * Register-register ALU and M-extension ops: X(name, cost, result).
 * `cost` names the Hart::CycleCosts field the op is charged; `result`
 * is an expression over the uint32 operands a and b. Division follows
 * the spec's no-trap corner cases: x/0 = -1, x%0 = x, INT_MIN/-1 =
 * INT_MIN, INT_MIN%-1 = 0.
 */
#define FS_RV_ALU_OPS(X)                                               \
    X(Add, alu, a + b)                                                 \
    X(Sub, alu, a - b)                                                 \
    X(Sll, alu, a << (b & 0x1f))                                       \
    X(Slt, alu, std::int32_t(a) < std::int32_t(b) ? 1u : 0u)           \
    X(Sltu, alu, a < b ? 1u : 0u)                                      \
    X(Xor, alu, a ^ b)                                                 \
    X(Srl, alu, a >> (b & 0x1f))                                       \
    X(Sra, alu, std::uint32_t(std::int32_t(a) >> (b & 0x1f)))          \
    X(Or, alu, a | b)                                                  \
    X(And, alu, a & b)                                                 \
    X(Mul, mul, a * b)                                                 \
    X(Mulh, mul,                                                       \
      std::uint32_t((std::int64_t(std::int32_t(a)) *                   \
                     std::int64_t(std::int32_t(b))) >> 32))            \
    X(Mulhsu, mul,                                                     \
      std::uint32_t((std::int64_t(std::int32_t(a)) *                   \
                     std::int64_t(std::uint64_t(b))) >> 32))           \
    X(Mulhu, mul,                                                      \
      std::uint32_t((std::uint64_t(a) * std::uint64_t(b)) >> 32))      \
    X(Div, div,                                                        \
      b == 0 ? 0xffffffffu                                             \
      : (a == 0x80000000u && b == 0xffffffffu)                         \
          ? a                                                          \
          : std::uint32_t(std::int32_t(a) / std::int32_t(b)))          \
    X(Divu, div, b == 0 ? 0xffffffffu : a / b)                         \
    X(Rem, div,                                                        \
      b == 0 ? a                                                       \
      : (a == 0x80000000u && b == 0xffffffffu)                         \
          ? 0u                                                         \
          : std::uint32_t(std::int32_t(a) % std::int32_t(b)))          \
    X(Remu, div, b == 0 ? a : a % b)

/** Immediate ALU ops: X(name, register form). The sign-extended
 *  immediate stands in for b (shifts mask it to the shamt). */
#define FS_RV_ALU_IMM_OPS(X)                                           \
    X(Addi, Add)                                                       \
    X(Slti, Slt)                                                       \
    X(Sltiu, Sltu)                                                     \
    X(Xori, Xor)                                                       \
    X(Ori, Or)                                                         \
    X(Andi, And)                                                       \
    X(Slli, Sll)                                                       \
    X(Srli, Srl)                                                       \
    X(Srai, Sra)

/** Loads: X(name, bytes, result), with `result` over the zero-extended
 *  raw value v. */
#define FS_RV_LOAD_OPS(X)                                              \
    X(Lb, 1, std::uint32_t(::fs::riscv::signExtend(v, 8)))             \
    X(Lh, 2, std::uint32_t(::fs::riscv::signExtend(v, 16)))            \
    X(Lw, 4, v)                                                        \
    X(Lbu, 1, v)                                                       \
    X(Lhu, 2, v)

/** Stores: X(name, bytes). */
#define FS_RV_STORE_OPS(X)                                             \
    X(Sb, 1)                                                           \
    X(Sh, 2)                                                           \
    X(Sw, 4)

/** Conditional branches: X(name, taken), over uint32 a and b. */
#define FS_RV_BRANCH_OPS(X)                                            \
    X(Beq, a == b)                                                     \
    X(Bne, a != b)                                                     \
    X(Blt, std::int32_t(a) < std::int32_t(b))                          \
    X(Bge, std::int32_t(a) >= std::int32_t(b))                         \
    X(Bltu, a < b)                                                     \
    X(Bgeu, a >= b)

namespace fs {
namespace riscv {

/** Sign-extend the low @p bits bits of @p value. */
inline std::int32_t
signExtend(std::uint32_t value, unsigned bits)
{
    const std::uint32_t mask = 1u << (bits - 1);
    return std::int32_t((value ^ mask) - mask);
}

/** jalr target: rs1 + imm with bit 0 cleared. */
inline std::uint32_t
jalrTarget(std::uint32_t rs1, std::uint32_t imm)
{
    return (rs1 + imm) & ~1u;
}

// aluAdd(a, b) ... aluRemu(a, b): one function per register ALU op.
#define FS_RV_DEFINE_ALU(name, cost, result)                           \
    inline std::uint32_t alu##name(std::uint32_t a, std::uint32_t b)   \
    {                                                                  \
        return result;                                                 \
    }
FS_RV_ALU_OPS(FS_RV_DEFINE_ALU)
#undef FS_RV_DEFINE_ALU

// extendLb(v) ... extendLhu(v): the register value a load writes.
#define FS_RV_DEFINE_LOAD(name, bytes, result)                         \
    inline std::uint32_t extend##name(std::uint32_t v) { return result; }
FS_RV_LOAD_OPS(FS_RV_DEFINE_LOAD)
#undef FS_RV_DEFINE_LOAD

// takenBeq(a, b) ... takenBgeu(a, b): branch conditions.
#define FS_RV_DEFINE_BRANCH(name, cond)                                \
    inline bool taken##name(std::uint32_t a, std::uint32_t b)          \
    {                                                                  \
        return cond;                                                   \
    }
FS_RV_BRANCH_OPS(FS_RV_DEFINE_BRANCH)
#undef FS_RV_DEFINE_BRANCH

} // namespace riscv
} // namespace fs

#endif // FS_RISCV_SEMANTICS_H_
