#include "fix/widget.h"

int main() { return mca::fix::reached_out_of_line(0) == 0 ? 1 : 0; }
