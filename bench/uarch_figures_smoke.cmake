# Smoke check for uarch_figures, run by ctest as
#   cmake -DBIN=<path to uarch_figures> -P uarch_figures_smoke.cmake
# A tiny campaign must exit 0 and print every figure section. (A test's
# PASS_REGULAR_EXPRESSION alone would ignore the exit code.)
execute_process(COMMAND "${BIN}" --trials 2 --workers 2
                RESULT_VARIABLE status OUTPUT_VARIABLE out)
if(NOT status EQUAL 0)
  message(FATAL_ERROR "uarch_figures exited with ${status}:\n${out}")
endif()
foreach(section "Figure 4" "Figure 5" "Figure 6" "Figure 8" "Headline")
  string(FIND "${out}" "=== ${section}" at)
  if(at EQUAL -1)
    message(FATAL_ERROR "uarch_figures printed no '=== ${section}' section:\n${out}")
  endif()
endforeach()
