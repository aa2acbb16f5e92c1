#include <op2c/codegen.hpp>

#include <sstream>

namespace op2c {

namespace {

std::string replace_all(std::string s, std::string const& from,
                        std::string const& to) {
    std::size_t pos = 0;
    while ((pos = s.find(from, pos)) != std::string::npos) {
        s.replace(pos, from.size(), to);
        pos += to.size();
    }
    return s;
}

void emit_header(std::ostream& os, loop_info const& lp,
                 codegen_options const& opt, char const* flavour) {
    os << "// Auto-generated by op2c — do not edit.\n"
       << "// Loop: \"" << lp.name << "\" (" << flavour << " backend)\n"
       << "#include <op2/op2.hpp>\n";
    if (!opt.kernel_include.empty()) {
        os << "#include \""
           << replace_all(opt.kernel_include, "{kernel}", lp.kernel)
           << "\"\n";
    }
    os << "\nnamespace " << opt.gen_namespace << " {\n\n";
}

void emit_signature(std::ostream& os, loop_info const& lp,
                    std::string const& ret, std::string const& suffix) {
    os << ret << " op_par_loop_" << lp.name << "_" << suffix
       << "(op2::loop_options const& opts, op2::op_set set";
    for (std::size_t i = 0; i < lp.args.size(); ++i) {
        os << ",\n        op2::op_arg arg" << i;
    }
    os << ")";
}

void emit_arg_summary(std::ostream& os, loop_info const& lp) {
    os << "// Arguments:\n";
    for (std::size_t i = 0; i < lp.args.size(); ++i) {
        auto const& a = lp.args[i];
        os << "//   arg" << i << ": ";
        if (a.is_gbl) {
            os << "gbl " << a.ptr << " dim=" << a.dim << " " << a.access;
        } else {
            os << a.dat << " idx=" << a.idx << " map=" << a.map
               << " dim=" << a.dim << " " << a.access;
        }
        os << "\n";
    }
}

/// Identifier for one slot of the struct-of-pointers argument pack:
/// derived from the dat/pointer expression, uniqued by position.
std::string arg_field_name(arg_info const& a, std::size_t i) {
    std::string base = a.is_gbl ? a.ptr : a.dat;
    std::string id;
    for (char c : base) {
        if ((c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
            (c >= '0' && c <= '9') || c == '_') {
            id += c;
        }
    }
    if (id.empty() || (id[0] >= '0' && id[0] <= '9')) {
        id = "arg" + id;
    }
    return id + "_" + std::to_string(i);
}

std::string args_struct_name(loop_info const& lp) {
    return lp.name + "_loop_args";
}

void emit_args_struct(std::ostream& os, loop_info const& lp) {
    os << "/// Staged-friendly struct-of-pointers argument pack: one named\n"
       << "/// op_arg slot per kernel parameter, in kernel order.\n"
       << "struct " << args_struct_name(lp) << " {\n";
    for (std::size_t i = 0; i < lp.args.size(); ++i) {
        os << "    op2::op_arg " << arg_field_name(lp.args[i], i) << ";\n";
    }
    os << "};\n\n";
}

}  // namespace

std::string generate_loop_wrapper_omp(loop_info const& lp,
                                      codegen_options const& opt) {
    std::ostringstream os;
    emit_header(os, lp, opt, "fork-join");
    emit_arg_summary(os, lp);
    emit_signature(os, lp, "void", "omp");
    os << " {\n"
       << "    // #pragma omp parallel for equivalent: parallel blocks,\n"
       << "    // colour-by-colour, implicit global barrier at loop end.\n"
       << "    op2::op_par_loop_fork_join(opts, \"" << lp.name
       << "\", set, " << lp.kernel;
    for (std::size_t i = 0; i < lp.args.size(); ++i) {
        os << ",\n        std::move(arg" << i << ")";
    }
    os << ");\n}\n\n}  // namespace " << opt.gen_namespace << "\n";
    return os.str();
}

std::string generate_loop_wrapper_hpx(loop_info const& lp,
                                      codegen_options const& opt) {
    std::ostringstream os;
    emit_header(os, lp, opt, "hpx dataflow");
    emit_arg_summary(os, lp);
    emit_signature(os, lp, "op2::exec::loop_handle", "hpx");
    os << " {\n"
       << "    // Issued asynchronously: the returned handle becomes ready\n"
       << "    // when the loop has executed; dependencies on other loops\n"
       << "    // are tracked automatically through the dats' epoch records\n"
       << "    // (dataflow, no global barrier).\n"
       << "    return op2::op_par_loop_hpx(opts, \"" << lp.name
       << "\", set, " << lp.kernel;
    for (std::size_t i = 0; i < lp.args.size(); ++i) {
        os << ",\n        std::move(arg" << i << ")";
    }
    os << ");\n}\n\n}  // namespace " << opt.gen_namespace << "\n";
    return os.str();
}

std::string generate_loop_wrapper_exec(loop_info const& lp,
                                       codegen_options const& opt) {
    std::ostringstream os;
    emit_header(os, lp, opt, "unified exec");
    emit_arg_summary(os, lp);
    emit_args_struct(os, lp);
    os << "op2::exec::loop_handle op_par_loop_" << lp.name
       << "(op2::loop_options const& opts, op2::op_set set,\n        "
       << args_struct_name(lp) << " args) {\n"
       << "    // Dispatches on opts.backend (seq / staged / hpx_dataflow):\n"
       << "    // synchronous backends return a ready handle, the dataflow\n"
       << "    // backend issues the loop into the epoch graph.\n"
       << "    return op2::exec::run_loop(opts, \"" << lp.name << "\", set, "
       << lp.kernel;
    for (std::size_t i = 0; i < lp.args.size(); ++i) {
        os << ",\n        std::move(args." << arg_field_name(lp.args[i], i)
           << ")";
    }
    os << ");\n}\n\n}  // namespace " << opt.gen_namespace << "\n";
    return os.str();
}

std::string generate_master_header(program_info const& prog,
                                   codegen_options const& opt) {
    std::ostringstream os;
    os << "// Auto-generated by op2c — do not edit.\n"
       << "// Declarations for all generated loop wrappers.\n"
       << "#pragma once\n\n"
       << "#include <op2/op2.hpp>\n\n"
       << "namespace " << opt.gen_namespace << " {\n\n";
    for (auto const& lp : prog.loops) {
        if (opt.tgt == target::omp || opt.tgt == target::both) {
            os << "void op_par_loop_" << lp.name
               << "_omp(op2::loop_options const&, op2::op_set";
            for (std::size_t i = 0; i < lp.args.size(); ++i) {
                os << ", op2::op_arg";
            }
            os << ");\n";
        }
        if (opt.tgt == target::hpx || opt.tgt == target::both) {
            os << "op2::exec::loop_handle op_par_loop_" << lp.name
               << "_hpx(op2::loop_options const&, op2::op_set";
            for (std::size_t i = 0; i < lp.args.size(); ++i) {
                os << ", op2::op_arg";
            }
            os << ");\n";
        }
        if (opt.tgt == target::exec || opt.tgt == target::both) {
            emit_args_struct(os, lp);
            os << "op2::exec::loop_handle op_par_loop_" << lp.name
               << "(op2::loop_options const&, op2::op_set, "
               << args_struct_name(lp) << ");\n";
        }
    }
    os << "\n}  // namespace " << opt.gen_namespace << "\n";
    return os.str();
}

std::vector<generated_file> generate(program_info const& prog,
                                     codegen_options const& opt) {
    std::vector<generated_file> files;
    for (auto const& lp : prog.loops) {
        if (opt.tgt == target::omp || opt.tgt == target::both) {
            files.push_back(
                {lp.name + "_omp_kernel.cpp", generate_loop_wrapper_omp(lp, opt)});
        }
        if (opt.tgt == target::hpx || opt.tgt == target::both) {
            files.push_back(
                {lp.name + "_hpx_kernel.cpp", generate_loop_wrapper_hpx(lp, opt)});
        }
        if (opt.tgt == target::exec || opt.tgt == target::both) {
            files.push_back({lp.name + "_exec_kernel.cpp",
                             generate_loop_wrapper_exec(lp, opt)});
        }
    }
    files.push_back({"op2c_kernels.hpp", generate_master_header(prog, opt)});
    return files;
}

}  // namespace op2c
