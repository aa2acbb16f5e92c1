#include <gtest/gtest.h>

#include <op2c/codegen.hpp>
#include <op2c/parser.hpp>

using namespace op2c;

namespace {

program_info sample_program() {
    return parse_program(R"(
      op_par_loop(save_soln, "save_soln", cells,
                  op_arg_dat(p_q, -1, OP_ID, 4, "double", OP_READ),
                  op_arg_dat(p_qold, -1, OP_ID, 4, "double", OP_WRITE));
      op_par_loop(res_calc, "res_calc", edges,
                  op_arg_dat(p_x, 0, pedge, 2, "double", OP_READ),
                  op_arg_dat(p_res, 0, pecell, 4, "double", OP_INC),
                  op_arg_gbl(&rms, 1, "double", OP_INC));
    )");
}

bool contains(std::string const& hay, std::string const& needle) {
    return hay.find(needle) != std::string::npos;
}

TEST(Codegen, OmpWrapperShape) {
    auto prog = sample_program();
    auto src = generate_loop_wrapper_omp(prog.loops[0]);
    EXPECT_TRUE(contains(src, "#include <op2/op2.hpp>"));
    EXPECT_TRUE(contains(src, "#include \"save_soln.h\""));
    EXPECT_TRUE(contains(src, "void op_par_loop_save_soln_omp("));
    EXPECT_TRUE(contains(src, "op2::op_par_loop_fork_join(opts, \"save_soln\", set, save_soln"));
    EXPECT_TRUE(contains(src, "op2::op_arg arg0"));
    EXPECT_TRUE(contains(src, "op2::op_arg arg1"));
    EXPECT_FALSE(contains(src, "arg2"));
    EXPECT_TRUE(contains(src, "namespace op2c_gen"));
}

TEST(Codegen, HpxWrapperShape) {
    auto prog = sample_program();
    auto src = generate_loop_wrapper_hpx(prog.loops[1]);
    EXPECT_TRUE(contains(src,
                         "op2::exec::loop_handle "
                         "op_par_loop_res_calc_hpx("));
    EXPECT_TRUE(contains(src, "return op2::op_par_loop_hpx(opts, \"res_calc\", set, res_calc"));
    EXPECT_TRUE(contains(src, "arg2"));  // three args
    EXPECT_TRUE(contains(src, "#include \"res_calc.h\""));
}

TEST(Codegen, ExecWrapperShape) {
    // The unified-backend wrapper: a struct-of-pointers argument pack
    // with one named op_arg slot per kernel parameter, dispatched through
    // op2::exec::run_loop so the backend is selected via loop_options.
    auto prog = sample_program();
    auto src = generate_loop_wrapper_exec(prog.loops[1]);
    EXPECT_TRUE(contains(src, "struct res_calc_loop_args {"));
    EXPECT_TRUE(contains(src, "op2::op_arg p_x_0;"));
    EXPECT_TRUE(contains(src, "op2::op_arg p_res_1;"));
    EXPECT_TRUE(contains(src, "op2::op_arg rms_2;"));  // gbl: '&' stripped
    EXPECT_TRUE(contains(src,
                         "op2::exec::loop_handle op_par_loop_res_calc("));
    EXPECT_TRUE(contains(
        src, "return op2::exec::run_loop(opts, \"res_calc\", set, res_calc"));
    EXPECT_TRUE(contains(src, "std::move(args.p_x_0)"));
    EXPECT_TRUE(contains(src, "#include \"res_calc.h\""));
}

TEST(Codegen, ArgSummaryDocumentsAccess) {
    auto prog = sample_program();
    auto src = generate_loop_wrapper_hpx(prog.loops[1]);
    EXPECT_TRUE(contains(src, "map=pedge"));
    EXPECT_TRUE(contains(src, "OP_INC"));
    EXPECT_TRUE(contains(src, "gbl &rms"));
}

TEST(Codegen, KernelIncludePatternCustomisable) {
    auto prog = sample_program();
    codegen_options opt;
    opt.kernel_include = "kernels/{kernel}.hpp";
    auto src = generate_loop_wrapper_omp(prog.loops[0], opt);
    EXPECT_TRUE(contains(src, "#include \"kernels/save_soln.hpp\""));
}

TEST(Codegen, CustomNamespace) {
    auto prog = sample_program();
    codegen_options opt;
    opt.gen_namespace = "mygen";
    auto src = generate_loop_wrapper_hpx(prog.loops[0], opt);
    EXPECT_TRUE(contains(src, "namespace mygen"));
}

TEST(Codegen, MasterHeaderDeclaresAllWrappers) {
    auto prog = sample_program();
    auto hdr = generate_master_header(prog);
    EXPECT_TRUE(contains(hdr, "#pragma once"));
    EXPECT_TRUE(contains(hdr, "void op_par_loop_save_soln_omp("));
    EXPECT_TRUE(contains(hdr, "op_par_loop_save_soln_hpx("));
    EXPECT_TRUE(contains(hdr, "op_par_loop_res_calc_omp("));
    EXPECT_TRUE(contains(hdr, "op_par_loop_res_calc_hpx("));
    EXPECT_TRUE(contains(hdr, "struct save_soln_loop_args {"));
    EXPECT_TRUE(contains(hdr, "struct res_calc_loop_args {"));
    EXPECT_TRUE(
        contains(hdr, "op2::exec::loop_handle op_par_loop_res_calc("));
}

TEST(Codegen, MasterHeaderRespectsTarget) {
    auto prog = sample_program();
    codegen_options opt;
    opt.tgt = target::hpx;
    auto hdr = generate_master_header(prog, opt);
    EXPECT_FALSE(contains(hdr, "_omp("));
    EXPECT_TRUE(contains(hdr, "_hpx("));
}

TEST(Codegen, GenerateProducesOneFilePerLoopPerBackend) {
    auto prog = sample_program();
    auto files = generate(prog);
    // 2 loops x 3 backends + master header.
    ASSERT_EQ(files.size(), 7u);
    EXPECT_EQ(files[0].filename, "save_soln_omp_kernel.cpp");
    EXPECT_EQ(files[1].filename, "save_soln_hpx_kernel.cpp");
    EXPECT_EQ(files[2].filename, "save_soln_exec_kernel.cpp");
    EXPECT_EQ(files[3].filename, "res_calc_omp_kernel.cpp");
    EXPECT_EQ(files[4].filename, "res_calc_hpx_kernel.cpp");
    EXPECT_EQ(files[5].filename, "res_calc_exec_kernel.cpp");
    EXPECT_EQ(files.back().filename, "op2c_kernels.hpp");
}

TEST(Codegen, SingleTargetHalvesOutput) {
    auto prog = sample_program();
    codegen_options opt;
    opt.tgt = target::omp;
    auto files = generate(prog, opt);
    ASSERT_EQ(files.size(), 3u);  // 2 wrappers + master
    for (auto const& f : files) {
        EXPECT_FALSE(contains(f.filename, "hpx"));
    }
}

TEST(Codegen, GeneratedCodeMentionsBarrierSemantics) {
    // The omp wrapper documents the implicit-barrier semantics the paper
    // sets out to remove; the hpx wrapper documents asynchronous issue.
    auto prog = sample_program();
    auto omp = generate_loop_wrapper_omp(prog.loops[0]);
    auto hpx = generate_loop_wrapper_hpx(prog.loops[0]);
    EXPECT_TRUE(contains(omp, "barrier"));
    EXPECT_TRUE(contains(hpx, "asynchronously"));
}

}  // namespace
